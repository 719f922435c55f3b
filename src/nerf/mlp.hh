/**
 * @file
 * A small fully-connected network with ReLU hidden activations — the
 * "Feature Computation" MLP of NeRF models. The forward pass reports
 * its multiply-accumulate count so timing models can price it.
 *
 * Two entry points exist: the scalar forward() and the batched
 * forwardBatch(), which evaluates many inputs through one blocked,
 * register-tiled GEMM microkernel on the build's vector backend
 * (src/common/simd.hh — AVX2, NEON or the 8-lane emulation). forward()
 * is forwardBatch at width 1, which runs only the scalar column loop,
 * so it is the kernel's reference. Both accumulate input channels in
 * the same ascending order with unfused multiply-adds, so every batch
 * size on every backend is bit-identical to forward(). Scratch
 * buffers live in thread-local storage: concurrent forward passes on
 * one model from many threads are safe.
 *
 * Weight storage is row-major fp32 by default; quantizeWeightsFp16()
 * switches the model to 2-byte (IEEE binary16) weight storage matching
 * the DRAM model priced by weightBytes(). In fp16 mode the kernel
 * widens the stored halves to fp32 on load (F16C/NEON or the exact
 * scalar conversion) and computes in fp32: forwardBatch stays
 * bit-identical to forward(), while outputs differ from the fp32 model
 * only by the weight quantization (|dw/w| <= 2^-11 per weight).
 */

#ifndef CICERO_NERF_MLP_HH
#define CICERO_NERF_MLP_HH

#include <cstdint>
#include <vector>

namespace cicero {

/**
 * Multilayer perceptron: dims = {in, h1, ..., out}; ReLU after every
 * layer except the last.
 */
class Mlp
{
  public:
    /**
     * @param dims Layer widths, at least {in, out}.
     * @param seed Weight-init seed (Xavier-uniform).
     */
    explicit Mlp(std::vector<int> dims, std::uint64_t seed = 1);

    int inputDim() const { return _dims.front(); }
    int outputDim() const { return _dims.back(); }

    /** MACs of one forward pass. */
    std::uint64_t macsPerInference() const { return _macs; }

    /** Total bytes of weights + biases (2 bytes/param, fp16 storage). */
    std::uint64_t weightBytes() const;

    /**
     * Forward pass of a single input.
     *
     * @param in  inputDim() floats.
     * @param out outputDim() floats.
     */
    void forward(const float *in, float *out) const;

    /**
     * Batched forward pass over @p count inputs in channel-major (SoA)
     * layout: channel c of item b lives at [c * count + b], for both
     * @p in (inputDim() x count floats) and @p out (outputDim() x count
     * floats). The contiguous item axis is what the vector kernel's
     * lane sweep runs over. Results are bit-identical to @p count
     * scalar forward() calls.
     */
    void forwardBatch(const float *in, float *out, int count) const;

    /**
     * Requantize the weights and biases to fp16 (round-to-nearest-even)
     * and switch the forward kernels to 2-byte weight storage. The fp32
     * arrays are replaced by the dequantized values, so tests and
     * direct weight access observe exactly what the kernel computes
     * with. Idempotent.
     */
    void quantizeWeightsFp16();

    /** Whether the kernels read fp16 weight storage. */
    bool fp16Weights() const { return _fp16; }

    /** Direct access for tests. */
    std::vector<std::vector<float>> &weights() { return _weights; }
    std::vector<std::vector<float>> &biases() { return _biases; }

  private:
    std::vector<int> _dims;
    // _weights[l] is row-major (dims[l+1] x dims[l]).
    std::vector<std::vector<float>> _weights;
    std::vector<std::vector<float>> _biases;
    // fp16 mode: the storage of record the kernels load from.
    std::vector<std::vector<std::uint16_t>> _weightsH;
    std::vector<std::vector<std::uint16_t>> _biasesH;
    bool _fp16 = false;
    std::uint64_t _macs = 0;
    int _maxWidth = 0;
};

} // namespace cicero

#endif // CICERO_NERF_MLP_HH

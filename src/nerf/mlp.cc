#include "nerf/mlp.hh"

#include <algorithm>
#include <cassert>
#include <cmath>

#include "common/parallel.hh"
#include "common/rng.hh"
#include "common/simd.hh"

namespace cicero {

namespace {

/**
 * Items per kernel block: bounds the thread-local scratch and keeps one
 * block's activations (maxWidth * kBatchBlock floats) L1-resident while
 * the weight rows stream over it.
 */
constexpr int kBatchBlock = 128;

using simd::VecF;

/**
 * One R x (C * VecF::kLanes) register tile of a dense layer: R output
 * rows by C vector lanes of items, accumulators held in registers
 * across the whole input-channel sweep. Input channels accumulate in
 * ascending order with unfused multiply-adds — per lane exactly the
 * scalar expression `acc += w * s` — so the tile is bit-identical to
 * the scalar reference for every lane.
 */
template <int R, int C>
inline void
gemmTile(const float *src, std::size_t srcStride, float *dst,
         std::size_t dstStride, const float *w, const float *bias, int ni,
         int o, int k, bool relu)
{
    VecF acc[R][C];
    for (int r = 0; r < R; ++r)
        for (int c = 0; c < C; ++c)
            acc[r][c] = VecF::broadcast(bias[o + r]);
    for (int i = 0; i < ni; ++i) {
        VecF s[C];
        const float *sp = src + static_cast<std::size_t>(i) * srcStride + k;
        for (int c = 0; c < C; ++c)
            s[c] = VecF::load(sp + c * VecF::kLanes);
        for (int r = 0; r < R; ++r) {
            const VecF wv = VecF::broadcast(
                w[static_cast<std::size_t>(o + r) * ni + i]);
            for (int c = 0; c < C; ++c)
                acc[r][c] = simd::madd(wv, s[c], acc[r][c]);
        }
    }
    for (int r = 0; r < R; ++r) {
        float *d = dst + static_cast<std::size_t>(o + r) * dstStride + k;
        for (int c = 0; c < C; ++c) {
            VecF v = relu ? simd::vmax(acc[r][c], VecF::zero())
                          : acc[r][c];
            v.store(d + c * VecF::kLanes);
        }
    }
}

/**
 * Scalar items [k, bn) of a dense layer — the tail the vector tiles
 * leave, and the whole layer for a block narrower than one vector
 * (forward() is forwardBatch at width 1, so it runs only this loop and
 * is the tiles' oracle). Same channel order and unfused arithmetic as
 * the tiles.
 */
inline void
denseLayerScalarCols(const float *src, std::size_t srcStride, float *dst,
                     std::size_t dstStride, const float *w,
                     const float *bias, int ni, int no, int k, int bn,
                     bool relu)
{
    for (int o = 0; o < no; ++o) {
        float *d = dst + static_cast<std::size_t>(o) * dstStride;
        const float *row = w + static_cast<std::size_t>(o) * ni;
        const float b = bias[o];
        for (int kk = k; kk < bn; ++kk)
            d[kk] = b;
        // Accumulate input channels in ascending order — the same order
        // as every other path, so all paths are bit-identical.
        for (int i = 0; i < ni; ++i) {
            const float wv = row[i];
            const float *s = src + static_cast<std::size_t>(i) * srcStride;
            for (int kk = k; kk < bn; ++kk)
                d[kk] += wv * s[kk];
        }
        if (relu)
            for (int kk = k; kk < bn; ++kk)
                d[kk] = std::fmax(0.0f, d[kk]); // ReLU hidden
    }
}

/** One dense layer over a bn-item block, vector tiles + scalar tail. */
inline void
denseLayer(const float *src, std::size_t srcStride, float *dst,
           std::size_t dstStride, const float *w, const float *bias,
           int ni, int no, int bn, bool relu)
{
    constexpr int L = VecF::kLanes;
    int k = 0;
    for (; k + 2 * L <= bn; k += 2 * L) {
        int o = 0;
        for (; o + 4 <= no; o += 4)
            gemmTile<4, 2>(src, srcStride, dst, dstStride, w, bias, ni, o,
                           k, relu);
        for (; o < no; ++o)
            gemmTile<1, 2>(src, srcStride, dst, dstStride, w, bias, ni, o,
                           k, relu);
    }
    for (; k + L <= bn; k += L) {
        int o = 0;
        for (; o + 4 <= no; o += 4)
            gemmTile<4, 1>(src, srcStride, dst, dstStride, w, bias, ni, o,
                           k, relu);
        for (; o < no; ++o)
            gemmTile<1, 1>(src, srcStride, dst, dstStride, w, bias, ni, o,
                           k, relu);
    }
    if (k < bn)
        denseLayerScalarCols(src, srcStride, dst, dstStride, w, bias, ni,
                             no, k, bn, relu);
}

} // namespace

Mlp::Mlp(std::vector<int> dims, std::uint64_t seed) : _dims(std::move(dims))
{
    assert(_dims.size() >= 2);
    Rng rng(seed);
    for (std::size_t l = 0; l + 1 < _dims.size(); ++l) {
        int in = _dims[l];
        int out = _dims[l + 1];
        _maxWidth = std::max({_maxWidth, in, out});
        float scale = std::sqrt(6.0f / (in + out));
        std::vector<float> w(static_cast<std::size_t>(in) * out);
        for (auto &v : w)
            v = rng.uniform(-scale, scale);
        _weights.push_back(std::move(w));
        _biases.emplace_back(out, 0.0f);
        _macs += static_cast<std::uint64_t>(in) * out;
    }
}

std::uint64_t
Mlp::weightBytes() const
{
    std::uint64_t params = 0;
    for (std::size_t l = 0; l < _weights.size(); ++l)
        params += _weights[l].size() + _biases[l].size();
    return params * 2; // fp16 storage
}

void
Mlp::quantizeWeightsFp16()
{
    if (_fp16)
        return;
    _weightsH.resize(_weights.size());
    _biasesH.resize(_biases.size());
    for (std::size_t l = 0; l < _weights.size(); ++l) {
        _weightsH[l].resize(_weights[l].size());
        _biasesH[l].resize(_biases[l].size());
        simd::convertF32ToF16(_weights[l].data(), _weightsH[l].data(),
                              _weights[l].size());
        simd::convertF32ToF16(_biases[l].data(), _biasesH[l].data(),
                              _biases[l].size());
        // The fp32 arrays become the dequantized mirror: direct weight
        // access observes exactly what the kernel computes with.
        simd::convertF16ToF32(_weightsH[l].data(), _weights[l].data(),
                              _weights[l].size());
        simd::convertF16ToF32(_biasesH[l].data(), _biases[l].data(),
                              _biases[l].size());
    }
    _fp16 = true;
}

void
Mlp::forward(const float *in, float *out) const
{
    // Channel-major with count == 1 degenerates to a plain dense
    // vector, so the scalar path is the batch kernel at width 1.
    forwardBatch(in, out, 1);
}

void
Mlp::forwardBatch(const float *in, float *out, int count) const
{
    if (count <= 0)
        return;

    // Measured batch density: every pass notes its width so benches
    // can report how full the kernel actually ran (fused serve blocks
    // should push this well past the solo block sizes).
    parallelNoteKernelBatch(static_cast<std::uint64_t>(count));

    // Scratch lives in TLS so concurrent forward passes on one model
    // are safe (the shared mutable buffers of the old implementation
    // were UB under multi-threaded rendering).
    thread_local std::vector<float> scratchA, scratchB;
    const std::size_t need =
        static_cast<std::size_t>(_maxWidth) * kBatchBlock;
    if (scratchA.size() < need) {
        scratchA.resize(need);
        scratchB.resize(need);
    }

    // fp16 weight storage: widen every layer's halves to fp32 once per
    // call (F16C/NEON, or the emulated backend's exact scalar
    // conversion — identical floats either way), then run the same
    // fp32 kernel. The widening cost is O(params), amortized over
    // the O(params * count) accumulation work.
    thread_local std::vector<float> weightsF, biasesF;
    thread_local std::vector<const float *> wPtr, bPtr;
    wPtr.resize(_weights.size());
    bPtr.resize(_biases.size());
    if (_fp16) {
        std::size_t totalW = 0, totalB = 0;
        for (std::size_t l = 0; l < _weightsH.size(); ++l) {
            totalW += _weightsH[l].size();
            totalB += _biasesH[l].size();
        }
        if (weightsF.size() < totalW)
            weightsF.resize(totalW);
        if (biasesF.size() < totalB)
            biasesF.resize(totalB);
        std::size_t ow = 0, ob = 0;
        for (std::size_t l = 0; l < _weightsH.size(); ++l) {
            simd::convertF16ToF32(_weightsH[l].data(), weightsF.data() + ow,
                                  _weightsH[l].size());
            simd::convertF16ToF32(_biasesH[l].data(), biasesF.data() + ob,
                                  _biasesH[l].size());
            wPtr[l] = weightsF.data() + ow;
            bPtr[l] = biasesF.data() + ob;
            ow += _weightsH[l].size();
            ob += _biasesH[l].size();
        }
    } else {
        for (std::size_t l = 0; l < _weights.size(); ++l) {
            wPtr[l] = _weights[l].data();
            bPtr[l] = _biases[l].data();
        }
    }

    for (int b0 = 0; b0 < count; b0 += kBatchBlock) {
        const int bn = std::min(kBatchBlock, count - b0);

        // Layer inputs: block columns of `in` for the first layer
        // (stride = count), then the ping-pong scratch (stride = bn,
        // the actual block width, so partial and single-item blocks —
        // forward() is forwardBatch at count 1 — stay contiguous).
        const float *src = in + b0;
        std::size_t srcStride = static_cast<std::size_t>(count);

        for (std::size_t l = 0; l < _weights.size(); ++l) {
            const int ni = _dims[l];
            const int no = _dims[l + 1];
            const bool last = l + 1 == _weights.size();

            float *dst = last ? out + b0
                              : (l % 2 == 0 ? scratchA.data()
                                            : scratchB.data());
            const std::size_t dstStride =
                last ? static_cast<std::size_t>(count)
                     : static_cast<std::size_t>(bn);

            denseLayer(src, srcStride, dst, dstStride, wPtr[l], bPtr[l],
                       ni, no, bn, !last);
            src = dst;
            srcStride = dstStride;
        }
    }
}

} // namespace cicero

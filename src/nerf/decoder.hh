/**
 * @file
 * Feature-to-radiance decoder (the Feature Computation stage).
 *
 * Substitution note: the paper's models use a *trained*
 * MLP. We decode the baked semantic channels analytically — which keeps
 * images meaningful — and add a small residual from a frozen
 * randomly-initialized MLP that is *actually executed* per sample, so
 * (a) Feature Computation costs real MLP FLOPs of the nominal model size
 * and (b) each model kind has its own reconstruction character, like
 * real per-model PSNR differences.
 *
 * Baked channel layout (featureDim = 9):
 *   0      sigma / kSigmaScale
 *   1..3   Lambert-shaded diffuse RGB
 *   4..6   normal * 0.5 + 0.5
 *   7      specular strength
 *   8      shininess / kShinScale
 */

#ifndef CICERO_NERF_DECODER_HH
#define CICERO_NERF_DECODER_HH

#include <cstddef>
#include <memory>

#include "common/math.hh"
#include "nerf/mlp.hh"
#include "scene/field.hh"

namespace cicero {

/** Number of baked semantic channels. */
constexpr int kFeatureDim = 9;

/** Density is stored as sigma / kSigmaScale to stay in [0, ~1]. */
constexpr float kSigmaScale = 64.0f;

/** Shininess is stored as shininess / kShinScale. */
constexpr float kShinScale = 64.0f;

/** Write the baked channels of @p pt into @p feature (kFeatureDim). */
void encodeBakedPoint(const BakedPoint &pt, float *feature);

/** Inverse of encodeBakedPoint (up to clamping). */
BakedPoint decodeBakedFeature(const float *feature);

/** Decoded sample: density plus view-dependent radiance. */
struct DecodedSample
{
    float sigma = 0.0f;
    Vec3 rgb;
};

/**
 * One ray block's decode request: a channel-major feature span sharing
 * a single ray direction, and the output slots to fill. The unit of
 * work the fused decode entry point batches — the renderer's ray
 * packets hand it one block per live ray. Fusion may interleave
 * *blocks* freely, but a block's samples always stay contiguous and in
 * order.
 */
struct DecodeBlock
{
    const float *features = nullptr; //!< channel-major (SoA) features
    std::size_t featureStride = 0;   //!< distance between channels
    int count = 0;                   //!< samples in the block
    Vec3 viewDir;                    //!< the block's ray direction
    DecodedSample *out = nullptr;    //!< count output slots
};

/**
 * Items per internal decode chunk: both batched decoder entry points
 * process at most this many samples per kernel pass through
 * fixed-capacity thread-local scratch (allocated once, hard-checked
 * against — never silently regrown in the hot loop).
 */
constexpr int kDecodeChunk = 256;

/**
 * The decoder: analytic shading head plus an executed-MLP residual.
 */
class Decoder
{
  public:
    /**
     * @param hiddenWidth    width of the executed residual MLP
     * @param hiddenLayers   hidden layer count of the executed MLP
     * @param nominalMacs    MACs/sample the *nominal* (paper-size) MLP
     *                       would execute; reported for work accounting
     * @param residualAmp    amplitude of the MLP residual on radiance
     * @param seed           weight seed (fixes the model's "character")
     */
    Decoder(const Vec3 &lightDir, int hiddenWidth = 16,
            int hiddenLayers = 1, std::uint64_t nominalMacs = 0,
            float residualAmp = 0.01f, std::uint64_t seed = 7);

    /**
     * Decode an interpolated feature vector for a ray direction.
     */
    DecodedSample decode(const float *feature, const Vec3 &viewDir) const;

    /**
     * Decode @p count feature vectors sharing one ray direction in
     * batched MLP passes of at most kDecodeChunk samples, channel-major
     * (SoA): channel c of sample i lives at
     * features[c * featureStride + i] — the layout
     * Encoding::gatherFeatureBatch produces (featureStride = block
     * size) and the layout the batched MLP kernel consumes, so no
     * feature transposition happens per call (sample-major buffers go
     * through simd::transposeToChannelMajor first). Results are
     * bit-identical to @p count scalar decode() calls. Thread-safe.
     */
    void decodeBatchSoA(const float *features, std::size_t featureStride,
                        int count, const Vec3 &viewDir,
                        DecodedSample *out) const;

    /**
     * Fused batched decode of @p numBlocks ray blocks (one per live
     * ray of a renderer packet): consecutive blocks are packed into
     * one channel-major staging buffer and pushed through a single
     * Mlp::forwardBatch pass per <= kDecodeChunk samples, with each
     * block's own view direction in the direction channels; a block
     * wider than kDecodeChunk is decoded in slices of its own.
     * Because forwardBatch accumulates every item independently in
     * the same channel order at any batch size, every sample gets the
     * bits of a scalar decode() call — batching composition never
     * changes bits. What fusion buys is kernel efficiency: full
     * vector lanes instead of per-block remainders, and (in fp16
     * weight mode) one weight-widening pass amortized over every
     * fused block. Every render walk decodes through here, so this
     * is the `mlp_decode` fault-injection site. Thread-safe.
     */
    void decodeBlocksFused(const DecodeBlock *blocks,
                           int numBlocks) const;

    /**
     * Switch the residual MLP to fp16 (2-byte) weight storage — see
     * Mlp::quantizeWeightsFp16().
     */
    void quantizeWeightsFp16();

    /** Whether the residual MLP reads fp16 weight storage. */
    bool fp16Weights() const { return _mlp.fp16Weights(); }

    /** MACs/sample to account for Feature Computation. */
    std::uint64_t nominalMacs() const { return _nominalMacs; }

    /** MACs/sample actually executed by the residual MLP. */
    std::uint64_t executedMacs() const { return _mlp.macsPerInference(); }

    std::uint64_t weightBytes() const { return _mlp.weightBytes(); }

  private:
    /**
     * The one batched decode: stages the at most kDecodeChunk samples
     * of @p blocks in the fixed-capacity scratch, runs one
     * Mlp::forwardBatch over them and finishes every sample. Aborts
     * on more samples than the scratch holds or a negative count.
     */
    void decodeRun(const DecodeBlock *blocks, int numBlocks) const;

    Vec3 _lightDir;
    Mlp _mlp;
    std::uint64_t _nominalMacs;
    float _residualAmp;
};

} // namespace cicero

#endif // CICERO_NERF_DECODER_HH

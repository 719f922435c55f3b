#include "nerf/decoder.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <vector>

#include "common/fault.hh"

namespace cicero {

void
encodeBakedPoint(const BakedPoint &pt, float *feature)
{
    feature[0] = pt.sigma / kSigmaScale;
    feature[1] = pt.diffuse.x;
    feature[2] = pt.diffuse.y;
    feature[3] = pt.diffuse.z;
    feature[4] = pt.normal.x * 0.5f + 0.5f;
    feature[5] = pt.normal.y * 0.5f + 0.5f;
    feature[6] = pt.normal.z * 0.5f + 0.5f;
    feature[7] = pt.specular;
    feature[8] = pt.shininess / kShinScale;
}

BakedPoint
decodeBakedFeature(const float *feature)
{
    BakedPoint pt;
    pt.sigma = std::fmax(0.0f, feature[0]) * kSigmaScale;
    pt.diffuse = {clamp(feature[1], 0.0f, 1.0f),
                  clamp(feature[2], 0.0f, 1.0f),
                  clamp(feature[3], 0.0f, 1.0f)};
    Vec3 n{feature[4] * 2.0f - 1.0f, feature[5] * 2.0f - 1.0f,
           feature[6] * 2.0f - 1.0f};
    pt.normal = n.normalized();
    pt.specular = clamp(feature[7], 0.0f, 1.0f);
    pt.shininess = std::fmax(1.0f, feature[8] * kShinScale);
    return pt;
}

Decoder::Decoder(const Vec3 &lightDir, int hiddenWidth, int hiddenLayers,
                 std::uint64_t nominalMacs, float residualAmp,
                 std::uint64_t seed)
    : _lightDir(lightDir.normalized()),
      _mlp(
          [&] {
              std::vector<int> dims;
              dims.push_back(kFeatureDim + 3); // feature + view direction
              for (int l = 0; l < hiddenLayers; ++l)
                  dims.push_back(hiddenWidth);
              dims.push_back(4); // sigma residual (unused) + rgb residual
              return dims;
          }(),
          seed),
      _nominalMacs(nominalMacs ? nominalMacs : _mlp.macsPerInference()),
      _residualAmp(residualAmp)
{
}

DecodedSample
Decoder::decode(const float *feature, const Vec3 &viewDir) const
{
    BakedPoint pt = decodeBakedFeature(feature);

    DecodedSample out;
    out.sigma = pt.sigma;
    if (pt.sigma <= 0.0f)
        return out;

    out.rgb = shadePoint(pt, viewDir, _lightDir);

    // Residual from the executed (frozen, random) MLP: stands in for the
    // irreducible reconstruction error of a trained network.
    float in[kFeatureDim + 3];
    for (int i = 0; i < kFeatureDim; ++i)
        in[i] = feature[i];
    Vec3 v = viewDir.normalized();
    in[kFeatureDim + 0] = v.x;
    in[kFeatureDim + 1] = v.y;
    in[kFeatureDim + 2] = v.z;

    float res[4];
    _mlp.forward(in, res);
    out.rgb.x = clamp(out.rgb.x + _residualAmp * std::tanh(res[1]),
                      0.0f, 1.0f);
    out.rgb.y = clamp(out.rgb.y + _residualAmp * std::tanh(res[2]),
                      0.0f, 1.0f);
    out.rgb.z = clamp(out.rgb.z + _residualAmp * std::tanh(res[3]),
                      0.0f, 1.0f);
    return out;
}

void
Decoder::quantizeWeightsFp16()
{
    _mlp.quantizeWeightsFp16();
}

void
Decoder::decodeRun(const DecodeBlock *blocks, int numBlocks) const
{
    // Fixed-capacity TLS scratch: sized once for kDecodeChunk items and
    // hard-checked against, never silently regrown — a chunked caller
    // that outgrew it would otherwise reallocate on every hot-loop call
    // (the fp16 weight path already pays a per-call widening pass; an
    // allocation on top would dwarf the kernel). The check is
    // unconditional, not an assert: release builds (-DNDEBUG) are the
    // only builds this project ships, and overflowing the scratch
    // would be silent heap corruption.
    int total = 0;
    bool negative = false;
    for (int k = 0; k < numBlocks; ++k) {
        total += blocks[k].count;
        negative |= blocks[k].count < 0;
    }
    if (negative || total > kDecodeChunk)
        std::abort();
    if (total == 0)
        return;
    constexpr int inDim = kFeatureDim + 3;
    thread_local std::vector<float> mlpIn(
        static_cast<std::size_t>(inDim) * kDecodeChunk);
    thread_local std::vector<float> mlpOut(
        static_cast<std::size_t>(4) * kDecodeChunk);

    // Stage: each block's channel-major features copied channel by
    // channel into its own columns of the packed layout, its
    // normalized view direction broadcast into the three direction
    // channels of those columns.
    const std::size_t n = static_cast<std::size_t>(total);
    std::size_t off = 0;
    for (int k = 0; k < numBlocks; ++k) {
        const DecodeBlock &blk = blocks[k];
        for (int c = 0; c < kFeatureDim; ++c) {
            const float *src =
                blk.features + static_cast<std::size_t>(c) * blk.featureStride;
            float *dst = mlpIn.data() + static_cast<std::size_t>(c) * n + off;
            for (int j = 0; j < blk.count; ++j)
                dst[j] = src[j];
        }
        const Vec3 v = blk.viewDir.normalized();
        for (int j = 0; j < blk.count; ++j) {
            mlpIn[(kFeatureDim + 0) * n + off + j] = v.x;
            mlpIn[(kFeatureDim + 1) * n + off + j] = v.y;
            mlpIn[(kFeatureDim + 2) * n + off + j] = v.z;
        }
        off += static_cast<std::size_t>(blk.count);
    }

    // One blocked pass instead of per-sample virtual-call round trips.
    // The residual of empty (sigma <= 0) samples is computed and
    // discarded; their decode below never reads it, matching the
    // scalar path's early return.
    _mlp.forwardBatch(mlpIn.data(), mlpOut.data(), total);

    // Finish every sample with decode()'s math, reading the staged
    // copies (same bits as the source buffers).
    off = 0;
    for (int k = 0; k < numBlocks; ++k) {
        const DecodeBlock &blk = blocks[k];
        float feature[kFeatureDim];
        for (int j = 0; j < blk.count; ++j) {
            const std::size_t i = off + static_cast<std::size_t>(j);
            for (int c = 0; c < kFeatureDim; ++c)
                feature[c] = mlpIn[static_cast<std::size_t>(c) * n + i];
            BakedPoint pt = decodeBakedFeature(feature);

            DecodedSample d;
            d.sigma = pt.sigma;
            if (pt.sigma > 0.0f) {
                d.rgb = shadePoint(pt, blk.viewDir, _lightDir);
                d.rgb.x = clamp(d.rgb.x +
                                    _residualAmp * std::tanh(mlpOut[1 * n + i]),
                                0.0f, 1.0f);
                d.rgb.y = clamp(d.rgb.y +
                                    _residualAmp * std::tanh(mlpOut[2 * n + i]),
                                0.0f, 1.0f);
                d.rgb.z = clamp(d.rgb.z +
                                    _residualAmp * std::tanh(mlpOut[3 * n + i]),
                                0.0f, 1.0f);
            }
            blk.out[j] = d;
        }
        off += static_cast<std::size_t>(blk.count);
    }
}

void
Decoder::decodeBatchSoA(const float *features, std::size_t featureStride,
                        int count, const Vec3 &viewDir,
                        DecodedSample *out) const
{
    for (int b0 = 0; b0 < count; b0 += kDecodeChunk) {
        const DecodeBlock slice{features + b0, featureStride,
                                std::min(kDecodeChunk, count - b0), viewDir,
                                out + b0};
        decodeRun(&slice, 1);
    }
}

void
Decoder::decodeBlocksFused(const DecodeBlock *blocks, int numBlocks) const
{
    faultCheck(FaultSite::MlpDecode);

    int b = 0;
    while (b < numBlocks) {
        // A block wider than the staging buffer is decoded in slices
        // of its own; otherwise consecutive blocks are packed greedily
        // into one run.
        if (blocks[b].count > kDecodeChunk) {
            const DecodeBlock &blk = blocks[b++];
            decodeBatchSoA(blk.features, blk.featureStride, blk.count,
                           blk.viewDir, blk.out);
            continue;
        }
        int total = 0;
        int e = b;
        while (e < numBlocks && total + blocks[e].count <= kDecodeChunk)
            total += blocks[e++].count;
        decodeRun(blocks + b, e - b);
        b = e;
    }
}

} // namespace cicero

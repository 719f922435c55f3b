/**
 * @file
 * Unit tests for the MLP and the feature decoder, including the
 * SIMD-vs-scalar kernel identity contract, the fp16 weight-storage
 * mode and the fused multi-block decode the renderer's ray packets
 * use.
 */

#include <algorithm>
#include <cmath>
#include <vector>

#include <gtest/gtest.h>

#include "common/simd.hh"
#include "nerf/decoder.hh"
#include "nerf/mlp.hh"

namespace cicero {
namespace {

std::vector<float>
testBatchInput(int dim, int count)
{
    std::vector<float> in(static_cast<std::size_t>(dim) * count);
    for (int c = 0; c < dim; ++c)
        for (int b = 0; b < count; ++b)
            in[static_cast<std::size_t>(c) * count + b] =
                0.05f * static_cast<float>((c * 31 + b * 7) % 40) - 1.0f;
    return in;
}

TEST(MlpTest, HandComputedForward)
{
    Mlp mlp({2, 2, 1});
    // Layer 0: out0 = relu(1*x0 + 2*x1), out1 = relu(-1*x0 + 0.5*x1)
    mlp.weights()[0] = {1.0f, 2.0f, -1.0f, 0.5f};
    mlp.biases()[0] = {0.0f, 0.0f};
    // Layer 1: y = 3*h0 + 4*h1 + 1
    mlp.weights()[1] = {3.0f, 4.0f};
    mlp.biases()[1] = {1.0f};

    float in[2] = {1.0f, 1.0f};
    float out[1];
    mlp.forward(in, out);
    // h = relu(3), relu(-0.5) = (3, 0); y = 9 + 0 + 1 = 10.
    EXPECT_NEAR(out[0], 10.0f, 1e-5f);
}

TEST(MlpTest, ReluClampsHidden)
{
    Mlp mlp({1, 1, 1});
    mlp.weights()[0] = {-1.0f};
    mlp.biases()[0] = {0.0f};
    mlp.weights()[1] = {1.0f};
    mlp.biases()[1] = {0.0f};
    float in[1] = {5.0f};
    float out[1];
    mlp.forward(in, out);
    EXPECT_FLOAT_EQ(out[0], 0.0f); // relu(-5) = 0
}

TEST(MlpTest, LastLayerIsLinear)
{
    Mlp mlp({1, 1});
    mlp.weights()[0] = {-2.0f};
    mlp.biases()[0] = {0.0f};
    float in[1] = {3.0f};
    float out[1];
    mlp.forward(in, out);
    EXPECT_FLOAT_EQ(out[0], -6.0f); // no ReLU on output
}

TEST(MlpTest, MacCountMatchesDims)
{
    Mlp mlp({10, 32, 16, 4});
    EXPECT_EQ(mlp.macsPerInference(),
              10ull * 32 + 32 * 16 + 16 * 4);
}

TEST(MlpTest, WeightBytesCountsParams)
{
    Mlp mlp({4, 8, 2});
    // (4*8 + 8) + (8*2 + 2) params, 2 bytes each.
    EXPECT_EQ(mlp.weightBytes(), 2ull * (32 + 8 + 16 + 2));
}

TEST(MlpTest, DeterministicInit)
{
    Mlp a({6, 12, 3}, 99);
    Mlp b({6, 12, 3}, 99);
    float in[6] = {0.1f, -0.2f, 0.3f, 0.4f, -0.5f, 0.6f};
    float oa[3], ob[3];
    a.forward(in, oa);
    b.forward(in, ob);
    for (int i = 0; i < 3; ++i)
        EXPECT_FLOAT_EQ(oa[i], ob[i]);
}

/**
 * forward() on every column of a channel-major batch: the scalar
 * reference the vector kernel of forwardBatch is held to (forward() is
 * forwardBatch at width 1, which runs only the scalar column loop).
 */
std::vector<float>
forwardEachColumn(const Mlp &mlp, const std::vector<float> &in, int count)
{
    const int ni = mlp.inputDim();
    const int no = mlp.outputDim();
    std::vector<float> out(static_cast<std::size_t>(no) * count);
    std::vector<float> col(ni), res(no);
    for (int b = 0; b < count; ++b) {
        for (int c = 0; c < ni; ++c)
            col[c] = in[static_cast<std::size_t>(c) * count + b];
        mlp.forward(col.data(), res.data());
        for (int c = 0; c < no; ++c)
            out[static_cast<std::size_t>(c) * count + b] = res[c];
    }
    return out;
}

// ---------------------------------------------------------------------
// Kernel identity: forwardBatch, on the build's vector backend, must be
// bit-identical to forward() at every batch size — full vector tiles,
// partial tiles, scalar tails, and multi-block batches.
// ---------------------------------------------------------------------

TEST(MlpTest, SimdMatchesScalarBitExactly)
{
    const std::vector<std::vector<int>> shapes = {
        {12, 16, 16, 4}, {9, 32, 4}, {3, 5, 7, 2}, {17, 1, 17}, {2, 64}};
    const int counts[] = {1,  3,  simd::VecF::kLanes,
                          simd::VecF::kLanes + 1,
                          2 * simd::VecF::kLanes + 3,
                          64, 127, 128, 129, 300};
    for (const auto &dims : shapes) {
        Mlp mlp(dims, 1234);
        for (int count : counts) {
            std::vector<float> in = testBatchInput(dims.front(), count);
            std::vector<float> batchOut(
                static_cast<std::size_t>(dims.back()) * count, -9.0f);
            mlp.forwardBatch(in.data(), batchOut.data(), count);
            const std::vector<float> scalarOut =
                forwardEachColumn(mlp, in, count);
            int mismatches = 0;
            for (std::size_t i = 0; i < batchOut.size(); ++i)
                if (batchOut[i] != scalarOut[i])
                    ++mismatches;
            ASSERT_EQ(mismatches, 0)
                << "dims[0]=" << dims.front() << " count=" << count;
        }
    }
}

// ---------------------------------------------------------------------
// fp16 weight storage.
// ---------------------------------------------------------------------

TEST(MlpTest, Fp16QuantizationRoundsWeightsThroughHalf)
{
    Mlp mlp({12, 16, 4}, 7);
    std::vector<float> before = mlp.weights()[0];
    EXPECT_FALSE(mlp.fp16Weights());
    mlp.quantizeWeightsFp16();
    EXPECT_TRUE(mlp.fp16Weights());
    // The fp32 mirror now holds exactly the dequantized halves:
    // re-rounding through fp16 changes nothing, and each weight moved
    // by at most half an fp16 ulp (2^-11 relative).
    int changed = 0;
    for (std::size_t i = 0; i < before.size(); ++i) {
        const float q = mlp.weights()[0][i];
        EXPECT_EQ(simd::f16ToF32(simd::f32ToF16(q)), q) << i;
        EXPECT_LE(std::fabs(q - before[i]),
                  std::ldexp(std::fabs(before[i]), -11) +
                      std::ldexp(1.0f, -24))
            << i;
        changed += q != before[i];
    }
    EXPECT_GT(changed, 0); // Xavier-random weights are not fp16 values
    mlp.quantizeWeightsFp16(); // idempotent
    EXPECT_TRUE(mlp.fp16Weights());
}

TEST(MlpTest, Fp16SimdMatchesFp16ScalarBitExactly)
{
    Mlp mlp({12, 16, 16, 4}, 77);
    mlp.quantizeWeightsFp16();
    for (int count : {1, 7, 64, 129}) {
        std::vector<float> in = testBatchInput(12, count);
        std::vector<float> batchOut(static_cast<std::size_t>(4) * count);
        mlp.forwardBatch(in.data(), batchOut.data(), count);
        const std::vector<float> scalarOut =
            forwardEachColumn(mlp, in, count);
        for (std::size_t i = 0; i < batchOut.size(); ++i)
            ASSERT_EQ(batchOut[i], scalarOut[i]) << "count=" << count
                                                 << " i=" << i;
    }
}

TEST(MlpTest, Fp16OutputsWithinQuantizationBound)
{
    // The fp16 model differs from fp32 only by weight quantization:
    // |dw| <= 2^-11 |w|, so a layer's output error is bounded by
    // sum_i |x_i| * |w_i| * 2^-11 (amplified layer to layer). Check
    // against a conservative per-output bound computed from the fp32
    // weights, and make sure the paths do differ (the bound is live).
    Mlp fp32({12, 16, 16, 4}, 321);
    Mlp fp16({12, 16, 16, 4}, 321);
    fp16.quantizeWeightsFp16();

    const int count = 33;
    std::vector<float> in = testBatchInput(12, count);
    std::vector<float> out32(static_cast<std::size_t>(4) * count);
    std::vector<float> out16(out32.size());
    fp32.forwardBatch(in.data(), out32.data(), count);
    fp16.forwardBatch(in.data(), out16.data(), count);

    // Worst-case activation magnitude per layer: |x|_inf * sum|w| + |b|.
    float actBound = 1.0f; // inputs are in [-1, 1]
    float errBound = 0.0f;
    for (std::size_t l = 0; l < fp32.weights().size(); ++l) {
        float rowSum = 0.0f;
        const int ni = l == 0 ? 12 : 16;
        const std::size_t rows = fp32.weights()[l].size() / ni;
        for (std::size_t r = 0; r < rows; ++r) {
            float s = 0.0f;
            for (int i = 0; i < ni; ++i)
                s += std::fabs(
                    fp32.weights()[l][r * ni + i]);
            rowSum = std::max(rowSum, s);
        }
        // Error through this layer: propagated input error plus fresh
        // quantization error of this layer's weights.
        errBound = errBound * rowSum +
                   actBound * rowSum * std::ldexp(1.0f, -11);
        actBound = actBound * rowSum;
    }
    int diff = 0;
    for (std::size_t i = 0; i < out32.size(); ++i) {
        EXPECT_LE(std::fabs(out32[i] - out16[i]), errBound) << i;
        diff += out32[i] != out16[i];
    }
    EXPECT_GT(diff, 0);
}

TEST(DecoderTest, BakedPointRoundTrip)
{
    BakedPoint pt;
    pt.sigma = 20.0f;
    pt.diffuse = {0.4f, 0.5f, 0.6f};
    pt.normal = Vec3{1.0f, 2.0f, -1.0f}.normalized();
    pt.specular = 0.3f;
    pt.shininess = 24.0f;

    float feat[kFeatureDim];
    encodeBakedPoint(pt, feat);
    BakedPoint back = decodeBakedFeature(feat);
    EXPECT_NEAR(back.sigma, pt.sigma, 1e-3f);
    EXPECT_NEAR(back.diffuse.y, pt.diffuse.y, 1e-5f);
    EXPECT_NEAR(back.normal.x, pt.normal.x, 1e-4f);
    EXPECT_NEAR(back.specular, pt.specular, 1e-5f);
    EXPECT_NEAR(back.shininess, pt.shininess, 1e-3f);
}

TEST(DecoderTest, ZeroDensityDecodesToZero)
{
    Decoder dec({0.3f, 0.8f, 0.5f});
    float feat[kFeatureDim] = {};
    DecodedSample s = dec.decode(feat, {0.0f, 0.0f, -1.0f});
    EXPECT_FLOAT_EQ(s.sigma, 0.0f);
    EXPECT_FLOAT_EQ(s.rgb.x, 0.0f);
}

TEST(DecoderTest, DecodeApproximatesShading)
{
    Vec3 light = Vec3{0.4f, 0.8f, 0.45f}.normalized();
    Decoder dec(light);
    BakedPoint pt;
    pt.sigma = 30.0f;
    pt.diffuse = {0.5f, 0.25f, 0.125f};
    pt.normal = {0.0f, 1.0f, 0.0f};
    pt.specular = 0.5f;
    pt.shininess = 16.0f;
    float feat[kFeatureDim];
    encodeBakedPoint(pt, feat);

    Vec3 view = Vec3{0.1f, -0.9f, -0.3f}.normalized();
    DecodedSample s = dec.decode(feat, view);
    Vec3 expect = shadePoint(pt, view, light);
    // Within the residual-MLP amplitude.
    EXPECT_NEAR(s.rgb.x, expect.x, 0.02f);
    EXPECT_NEAR(s.rgb.y, expect.y, 0.02f);
    EXPECT_NEAR(s.rgb.z, expect.z, 0.02f);
    EXPECT_NEAR(s.sigma, pt.sigma, 0.05f);
}

TEST(DecoderTest, NominalMacsOverridesExecuted)
{
    Decoder dec({0.0f, 1.0f, 0.0f}, 16, 1, 123456);
    EXPECT_EQ(dec.nominalMacs(), 123456u);
    EXPECT_GT(dec.executedMacs(), 0u);
    EXPECT_LT(dec.executedMacs(), dec.nominalMacs());
}

/** Channel-major features for @p count synthetic baked points. */
std::vector<float>
blockFeatures(int count, int salt)
{
    std::vector<float> aos(static_cast<std::size_t>(count) * kFeatureDim);
    for (int b = 0; b < count; ++b) {
        BakedPoint pt;
        pt.sigma = ((b + salt) % 5 == 0) ? 0.0f : 0.8f + 0.3f * (b % 40);
        pt.diffuse = {0.07f * ((b + salt) % 13), 0.4f,
                      0.9f - 0.02f * (b % 40)};
        pt.normal =
            Vec3{0.1f * (salt % 7), 1.0f, 0.05f * (b % 40)}.normalized();
        pt.specular = 0.03f * ((b + salt) % 9);
        pt.shininess = 3.0f + (b % 11);
        encodeBakedPoint(pt, aos.data() + b * kFeatureDim);
    }
    std::vector<float> soa(aos.size());
    if (count > 0)
        simd::transposeToChannelMajor(aos.data(), count, kFeatureDim,
                                      soa.data());
    return soa;
}

/**
 * decodeBlocksFused over blocks of mixed widths — a zero-count block,
 * one wider than kDecodeChunk, and enough 64-sample blocks that the
 * staging buffer fills more than once — must give every sample the
 * bits of a scalar Decoder::decode() call on it, and leave the
 * zero-count block's output untouched.
 */
void
expectFusedMatchesScalar(const Decoder &decoder)
{
    const std::vector<int> counts{8,  16, 13, 0,  32, 5,
                                  kDecodeChunk + 44, 64, 64, 64, 64, 7};
    const int numBlocks = static_cast<int>(counts.size());
    std::vector<std::vector<float>> feats;
    std::vector<std::vector<DecodedSample>> fused(numBlocks);
    std::vector<DecodeBlock> blocks(numBlocks);
    DecodedSample sentinel;
    sentinel.sigma = -7.0f;
    for (int i = 0; i < numBlocks; ++i) {
        feats.push_back(blockFeatures(counts[i], i));
        fused[i].assign(std::max(counts[i], 1), sentinel);
        blocks[i].features = feats[i].data();
        blocks[i].featureStride = static_cast<std::size_t>(counts[i]);
        blocks[i].count = counts[i];
        blocks[i].viewDir =
            Vec3{0.2f * i - 0.3f, -0.1f * i, -1.0f}.normalized();
        blocks[i].out = fused[i].data();
    }
    decoder.decodeBlocksFused(blocks.data(), numBlocks);

    for (int i = 0; i < numBlocks; ++i) {
        if (counts[i] == 0) {
            EXPECT_EQ(fused[i][0].sigma, sentinel.sigma) << "block " << i;
        }
        const std::size_t stride = blocks[i].featureStride;
        for (int b = 0; b < counts[i]; ++b) {
            float feature[kFeatureDim];
            for (int c = 0; c < kFeatureDim; ++c)
                feature[c] = feats[i][c * stride + b];
            const DecodedSample scalar =
                decoder.decode(feature, blocks[i].viewDir);
            EXPECT_EQ(fused[i][b].sigma, scalar.sigma)
                << "block " << i << " sample " << b;
            EXPECT_EQ(fused[i][b].rgb.x, scalar.rgb.x);
            EXPECT_EQ(fused[i][b].rgb.y, scalar.rgb.y);
            EXPECT_EQ(fused[i][b].rgb.z, scalar.rgb.z);
        }
    }
}

TEST(DecoderTest, FusedBlocksMatchSoloDecodeFp32)
{
    expectFusedMatchesScalar(Decoder(Vec3{0.3f, 0.8f, 0.5f}));
}

TEST(DecoderTest, FusedBlocksMatchSoloDecodeFp16)
{
    Decoder decoder(Vec3{0.3f, 0.8f, 0.5f});
    decoder.quantizeWeightsFp16();
    ASSERT_TRUE(decoder.fp16Weights());
    expectFusedMatchesScalar(decoder);
}

TEST(DecoderTest, RgbStaysInRange)
{
    Decoder dec({0.0f, 1.0f, 0.0f});
    BakedPoint pt;
    pt.sigma = 64.0f;
    pt.diffuse = {1.0f, 1.0f, 1.0f};
    pt.normal = {0.0f, 1.0f, 0.0f};
    pt.specular = 1.0f;
    pt.shininess = 1.0f;
    float feat[kFeatureDim];
    encodeBakedPoint(pt, feat);
    DecodedSample s = dec.decode(feat, {0.0f, -1.0f, 0.0f});
    EXPECT_LE(s.rgb.x, 1.0f);
    EXPECT_LE(s.rgb.y, 1.0f);
    EXPECT_GE(s.rgb.z, 0.0f);
}

} // namespace
} // namespace cicero

/**
 * @file
 * Unit and property tests for the three feature encodings, including
 * the SIMD-vs-scalar batched-gather identity contract and fp16 feature
 * quantization.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "common/rng.hh"
#include "common/simd.hh"
#include "nerf/dense_grid.hh"
#include "nerf/hash_grid.hh"
#include "nerf/tensorf.hh"
#include "test_util.hh"

namespace cicero {
namespace {

// ---------------------------------------------------------------------
// Dense grid
// ---------------------------------------------------------------------

TEST(DenseGridTest, ExactAtVertices)
{
    Scene s = test::tinyScene();
    DenseGridEncoding grid(16);
    grid.bake(s.field);

    const Aabb &b = s.field.bounds();
    Vec3 e = b.extent();
    // Query exactly at a vertex: trilinear must reproduce the bake.
    for (int v : {0, 5, 16}) {
        Vec3 pn{v / 16.0f, v / 16.0f, v / 16.0f};
        float feat[kFeatureDim];
        grid.gatherFeature(pn, feat);
        Vec3 p{b.lo.x + e.x * pn.x, b.lo.y + e.y * pn.y,
               b.lo.z + e.z * pn.z};
        float expect[kFeatureDim];
        encodeBakedPoint(s.field.bakePoint(p), expect);
        for (int ch = 0; ch < kFeatureDim; ++ch)
            EXPECT_NEAR(feat[ch], expect[ch], 1e-4f) << "ch " << ch;
    }
}

TEST(DenseGridTest, CornerWeightsSumToOne)
{
    DenseGridEncoding grid(8);
    Rng rng(3);
    for (int i = 0; i < 50; ++i) {
        auto cs = grid.corners(rng.uniformVec3());
        float sum = 0.0f;
        for (const auto &c : cs) {
            sum += c.weight;
            EXPECT_GE(c.weight, 0.0f);
        }
        EXPECT_NEAR(sum, 1.0f, 1e-5f);
    }
}

/** Property: interpolated values stay within the corner value hull. */
class DenseGridConvexity : public ::testing::TestWithParam<int>
{
};

TEST_P(DenseGridConvexity, InterpolationIsConvex)
{
    Scene s = test::tinyScene();
    static DenseGridEncoding grid = [] {
        DenseGridEncoding g(12);
        g.bake(test::tinyScene().field);
        return g;
    }();

    Rng rng(GetParam());
    Vec3 pn = rng.uniformVec3();
    auto cs = grid.corners(pn);
    float feat[kFeatureDim];
    grid.gatherFeature(pn, feat);

    for (int ch = 0; ch < kFeatureDim; ++ch) {
        float lo = 1e30f, hi = -1e30f;
        for (const auto &c : cs) {
            float v = grid.vertexData(c.ix, c.iy, c.iz)[ch];
            lo = std::min(lo, v);
            hi = std::max(hi, v);
        }
        EXPECT_GE(feat[ch], lo - 1e-4f);
        EXPECT_LE(feat[ch], hi + 1e-4f);
    }
}

INSTANTIATE_TEST_SUITE_P(Sweep, DenseGridConvexity,
                         ::testing::Range(1, 20));

TEST(DenseGridTest, LayoutChangesAddressesNotValues)
{
    Scene s = test::tinyScene();
    DenseGridEncoding linear(10, GridLayout::Linear);
    DenseGridEncoding blocked(10, GridLayout::MVoxelBlocked);
    linear.bake(s.field);
    blocked.bake(s.field);

    Rng rng(5);
    for (int i = 0; i < 20; ++i) {
        Vec3 pn = rng.uniformVec3();
        float a[kFeatureDim], b[kFeatureDim];
        linear.gatherFeature(pn, a);
        blocked.gatherFeature(pn, b);
        for (int ch = 0; ch < kFeatureDim; ++ch)
            EXPECT_FLOAT_EQ(a[ch], b[ch]);
    }
    // But addresses differ in general.
    EXPECT_NE(linear.vertexAddr(9, 9, 9), blocked.vertexAddr(9, 9, 9));
}

TEST(DenseGridTest, LinearAddressesAreRowMajor)
{
    DenseGridEncoding grid(8, GridLayout::Linear);
    std::uint32_t vb = grid.vertexBytes();
    EXPECT_EQ(grid.vertexAddr(0, 0, 0), 0u);
    EXPECT_EQ(grid.vertexAddr(1, 0, 0), vb);
    EXPECT_EQ(grid.vertexAddr(0, 1, 0), 9ull * vb);
    EXPECT_EQ(grid.vertexAddr(0, 0, 1), 81ull * vb);
}

TEST(DenseGridTest, MVoxelAddressesContiguousWithinBlock)
{
    DenseGridEncoding grid(15, GridLayout::MVoxelBlocked, 8);
    // All vertices of block 0 fall within [0, mvoxelBytes).
    for (int z = 0; z < 8; ++z) {
        for (int y = 0; y < 8; ++y) {
            for (int x = 0; x < 8; ++x) {
                std::uint64_t a = grid.vertexAddr(x, y, z);
                EXPECT_LT(a, grid.mvoxelBytes());
                EXPECT_EQ(grid.mvoxelOfVertex(x, y, z), 0u);
            }
        }
    }
    EXPECT_EQ(grid.mvoxelOfVertex(8, 0, 0), 1u);
    EXPECT_GE(grid.vertexAddr(8, 0, 0), grid.mvoxelBytes());
}

TEST(DenseGridTest, AccessesAreEightVertexFetches)
{
    DenseGridEncoding grid(8);
    std::vector<MemAccess> acc;
    grid.gatherAccesses({0.5f, 0.5f, 0.5f}, 7, acc);
    ASSERT_EQ(acc.size(), 8u);
    std::unordered_set<std::uint64_t> addrs;
    for (const auto &a : acc) {
        EXPECT_EQ(a.bytes, grid.vertexBytes());
        EXPECT_EQ(a.rayId, 7u);
        addrs.insert(a.addr);
    }
    EXPECT_EQ(addrs.size(), 8u); // distinct vertices
}

TEST(DenseGridTest, StreamingFootprintCountsBlocks)
{
    DenseGridEncoding grid(15, GridLayout::MVoxelBlocked, 8);
    // One sample in the interior of block 0 touches exactly 1 MVoxel.
    std::vector<Vec3> pos = {{0.1f, 0.1f, 0.1f}};
    StreamPlan plan = grid.streamingFootprint(pos);
    EXPECT_EQ(plan.streamedBytes, grid.mvoxelBytes());
    EXPECT_EQ(plan.ritEntries, 1u);
    EXPECT_EQ(plan.ritBytes, 48u);

    // A sample whose voxel straddles the block boundary produces
    // partial entries in both blocks.
    std::vector<Vec3> boundary = {{7.2f / 15.0f, 0.1f, 0.1f}};
    StreamPlan plan2 = grid.streamingFootprint(boundary);
    EXPECT_EQ(plan2.ritEntries, 2u);
    EXPECT_EQ(plan2.streamedBytes, 2 * grid.mvoxelBytes());
}

TEST(DenseGridTest, ModelBytesMatchesGeometry)
{
    DenseGridEncoding grid(16);
    EXPECT_EQ(grid.modelBytes(),
              17ull * 17 * 17 * kFeatureDim * kBytesPerChannel);
}

// ---------------------------------------------------------------------
// Hash grid
// ---------------------------------------------------------------------

HashGridConfig
smallHashConfig()
{
    HashGridConfig cfg;
    cfg.numLevels = 4;
    cfg.baseRes = 4;
    cfg.perLevelScale = 2.0f;
    cfg.tableSize = 4096;
    return cfg;
}

TEST(HashGridTest, LevelResolutionsGrow)
{
    HashGridEncoding enc(smallHashConfig());
    EXPECT_EQ(enc.levelRes(0), 4);
    EXPECT_EQ(enc.levelRes(1), 8);
    EXPECT_EQ(enc.levelRes(2), 16);
    EXPECT_EQ(enc.levelRes(3), 32);
}

TEST(HashGridTest, CoarseLevelsDenseFineLevelsHashed)
{
    HashGridEncoding enc(smallHashConfig());
    // (4+1)^3=125, (8+1)^3=729, (16+1)^3=4913 > 4096.
    EXPECT_TRUE(enc.levelDense(0));
    EXPECT_TRUE(enc.levelDense(1));
    EXPECT_FALSE(enc.levelDense(2));
    EXPECT_FALSE(enc.levelDense(3));
    EXPECT_EQ(enc.revertLevel(), 2);
}

TEST(HashGridTest, ReconstructsFieldApproximately)
{
    Scene s = test::tinyScene();
    HashGridConfig cfg;
    cfg.numLevels = 5;
    cfg.baseRes = 4;
    cfg.perLevelScale = 1.8f;
    cfg.tableSize = 1u << 14;
    HashGridEncoding enc(cfg);
    enc.bake(s.field);

    const Aabb &b = s.field.bounds();
    Vec3 e = b.extent();
    Rng rng(9);
    double err = 0.0;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
        Vec3 pn = rng.uniformVec3();
        float feat[kFeatureDim];
        enc.gatherFeature(pn, feat);
        Vec3 p{b.lo.x + e.x * pn.x, b.lo.y + e.y * pn.y,
               b.lo.z + e.z * pn.z};
        float expect[kFeatureDim];
        encodeBakedPoint(s.field.bakePoint(p), expect);
        // Compare the diffuse channels (bounded [0,1]).
        for (int ch = 1; ch <= 3; ++ch)
            err += std::fabs(feat[ch] - expect[ch]);
    }
    EXPECT_LT(err / (3 * n), 0.08);
}

TEST(HashGridTest, FetchCountsPerLevel)
{
    HashGridEncoding enc(smallHashConfig());
    EXPECT_EQ(enc.fetchesPerSample(), 8u * 4);
    std::vector<MemAccess> acc;
    enc.gatherAccesses({0.3f, 0.7f, 0.2f}, 1, acc);
    EXPECT_EQ(acc.size(), 32u);
}

TEST(HashGridTest, AccessAddressesWithinLevelRegions)
{
    HashGridEncoding enc(smallHashConfig());
    std::vector<MemAccess> acc;
    enc.gatherAccesses({0.5f, 0.5f, 0.5f}, 0, acc);
    // All addresses fall inside the model.
    for (const auto &a : acc)
        EXPECT_LT(a.addr + a.bytes, enc.modelBytes() + 1);
}

TEST(HashGridTest, StreamingFootprintSplitsByLevel)
{
    HashGridEncoding enc(smallHashConfig());
    std::vector<Vec3> pos;
    Rng rng(4);
    for (int i = 0; i < 100; ++i)
        pos.push_back(rng.uniformVec3());
    StreamPlan plan = enc.streamingFootprint(pos);
    // Two dense levels stream; two hashed levels are random.
    EXPECT_GT(plan.streamedBytes, 0u);
    EXPECT_EQ(plan.randomBytes,
              100ull * 2 * 8 * kFeatureDim * kBytesPerChannel);
    EXPECT_GT(plan.ritEntries, 0u);
}

TEST(HashGridTest, FullConfigRevertsMidway)
{
    // The paper: Instant-NGP reverts to non-streaming from level 5 of 8.
    HashGridEncoding enc(HashGridConfig::full());
    EXPECT_EQ(enc.config().numLevels, 8);
    int revert = enc.revertLevel();
    EXPECT_GE(revert, 3);
    EXPECT_LE(revert, 5);
}

// ---------------------------------------------------------------------
// TensoRF
// ---------------------------------------------------------------------

TEST(TensoRFTest, ReconstructsSeparableFieldWell)
{
    // A centered sphere density is nearly separable; the greedy rank-1
    // fit should capture most of it.
    Scene s = test::tinyScene();
    TensoRFConfig cfg;
    cfg.res = 32;
    cfg.ranks = 4;
    TensoRFEncoding enc(cfg);
    enc.bake(s.field);

    const Aabb &b = s.field.bounds();
    Vec3 e = b.extent();
    Rng rng(13);
    double err = 0.0;
    const int n = 200;
    for (int i = 0; i < n; ++i) {
        Vec3 pn = rng.uniformVec3();
        float feat[kFeatureDim];
        enc.gatherFeature(pn, feat);
        Vec3 p{b.lo.x + e.x * pn.x, b.lo.y + e.y * pn.y,
               b.lo.z + e.z * pn.z};
        float expect[kFeatureDim];
        encodeBakedPoint(s.field.bakePoint(p), expect);
        for (int ch = 1; ch <= 3; ++ch)
            err += std::fabs(feat[ch] - expect[ch]);
    }
    EXPECT_LT(err / (3 * n), 0.1);
}

TEST(TensoRFTest, MoreRanksReduceError)
{
    Scene s = test::tinyScene();
    auto fitError = [&](int ranks) {
        TensoRFConfig cfg;
        cfg.res = 24;
        cfg.ranks = ranks;
        TensoRFEncoding enc(cfg);
        enc.bake(s.field);
        Rng rng(21);
        const Aabb &b = s.field.bounds();
        Vec3 e = b.extent();
        double err = 0.0;
        for (int i = 0; i < 150; ++i) {
            Vec3 pn = rng.uniformVec3();
            float feat[kFeatureDim];
            enc.gatherFeature(pn, feat);
            Vec3 p{b.lo.x + e.x * pn.x, b.lo.y + e.y * pn.y,
                   b.lo.z + e.z * pn.z};
            float expect[kFeatureDim];
            encodeBakedPoint(s.field.bakePoint(p), expect);
            for (int ch = 0; ch < kFeatureDim; ++ch)
                err += std::fabs(feat[ch] - expect[ch]);
        }
        return err;
    };
    EXPECT_LT(fitError(4), fitError(1));
}

TEST(TensoRFTest, AccessPattern)
{
    TensoRFConfig cfg;
    cfg.res = 16;
    cfg.ranks = 2;
    TensoRFEncoding enc(cfg);
    std::vector<MemAccess> acc;
    enc.gatherAccesses({0.4f, 0.6f, 0.2f}, 3, acc);
    // 3 groupings x (4 plane + 2 line) fetches.
    EXPECT_EQ(acc.size(), 18u);
    for (const auto &a : acc)
        EXPECT_LT(a.addr + a.bytes, enc.modelBytes() + 1);
}

TEST(TensoRFTest, ModelBytesFormula)
{
    TensoRFConfig cfg;
    cfg.res = 16;
    cfg.ranks = 2;
    TensoRFEncoding enc(cfg);
    std::uint64_t texel = 2ull * kFeatureDim * kBytesPerChannel;
    EXPECT_EQ(enc.modelBytes(), 3ull * (16 * 16 + 16) * texel);
}

TEST(TensoRFTest, StreamingFootprintAllStreamable)
{
    TensoRFConfig cfg;
    cfg.res = 32;
    cfg.ranks = 2;
    TensoRFEncoding enc(cfg);
    Rng rng(2);
    std::vector<Vec3> pos;
    for (int i = 0; i < 64; ++i)
        pos.push_back(rng.uniformVec3());
    StreamPlan plan = enc.streamingFootprint(pos);
    EXPECT_EQ(plan.randomBytes, 0u);
    EXPECT_GT(plan.streamedBytes, 0u);
}

// ---------------------------------------------------------------------
// Batched gather: every encoding's gatherFeatureBatch, on the build's
// vector backend, must be bit-identical to per-sample gatherFeature,
// writing the channel-major (SoA) layout, and gatherAccessesBatch must append the exact
// per-sample access stream (sample-major, fetchesPerSample() entries
// per sample).
// ---------------------------------------------------------------------

TEST(BatchedGatherTest, TransposePadsDeadLanesWithTheLastPosition)
{
    // Dead lanes of the last block repeat pn[n - 1] — never stale data
    // from an earlier, longer transpose on this thread.
    constexpr int L = simd::VecF::kLanes;
    std::vector<Vec3> stale(64, Vec3{-7.0f, 8.0f, 1e30f});
    transposePositionsSoA(stale.data(), static_cast<int>(stale.size()));
    Rng rng(3);
    for (int n = 1; n <= 3 * L + 1; ++n) {
        std::vector<Vec3> pn;
        for (int i = 0; i < n; ++i)
            pn.push_back(rng.uniformVec3());
        const int padded = (n + L - 1) / L * L;
        const PositionsSoA soa = transposePositionsSoA(pn.data(), n);
        int bad = 0;
        for (int i = 0; i < padded; ++i) {
            const Vec3 &want = pn[std::min(i, n - 1)];
            bad += soa.x[i] != want.x || soa.y[i] != want.y ||
                   soa.z[i] != want.z;
        }
        EXPECT_EQ(bad, 0) << "n=" << n;
    }
}

void
expectBatchMatchesScalar(const Encoding &enc, unsigned seed)
{
    // Every third position is an edge case: a corner or face of the
    // unit cube, the last vertex row (a coordinate of exactly 1 or just
    // below it) or a point outside [0,1]^3 that the gather clamps.
    const Vec3 edges[] = {
        {0.0f, 0.0f, 0.0f},      {1.0f, 1.0f, 1.0f},
        {0.0f, 1.0f, 0.5f},      {1.0f, 0.3f, 0.7f},
        {0.2f, 1.0f, 1.0f},      {0.99999994f, 0.5f, 1.0f},
        {0.6f, 0.99999994f, 0.0f}, {-0.25f, 0.5f, 0.5f},
        {1.5f, -2.0f, 0.3f},     {0.4f, 1.25f, -0.1f},
        {2.0f, 2.0f, 2.0f},      {-1.0f, -1.0f, -1.0f},
    };
    constexpr int kEdges = sizeof(edges) / sizeof(edges[0]);
    Rng rng(seed);
    std::vector<Vec3> pos;
    for (int i = 0; i < 512; ++i)
        pos.push_back(i % 3 == 1 ? edges[(i / 3) % kEdges]
                                 : rng.uniformVec3());
    const int dim = enc.featureDim();

    // Batch sizes below, at and between vector widths (every lane
    // block and scalar-tail split up to 17), odd and even sizes past
    // them, and the widest packet round (8 rays x 64 samples).
    std::vector<int> sizes;
    for (int n = 1; n <= 17; ++n)
        sizes.push_back(n);
    for (int n : {40, 41, 64, 512})
        sizes.push_back(n);

    // The kernels run their last lane block at full width: the input
    // span is exactly n positions (so reading past it is a heap
    // overflow) and the output is followed by guard floats that must
    // come back untouched.
    constexpr int kGuard = 16;
    constexpr float kGuardValue = -12345.5f;
    for (int n : sizes) {
        const std::vector<Vec3> in(pos.begin(), pos.begin() + n);
        const std::size_t outSize = static_cast<std::size_t>(n) * dim;
        std::vector<float> batch(outSize + kGuard, kGuardValue);
        enc.gatherFeatureBatch(in.data(), n, batch.data());
        int guardsHit = 0;
        for (int g = 0; g < kGuard; ++g)
            guardsHit += batch[outSize + g] != kGuardValue;
        EXPECT_EQ(guardsHit, 0) << enc.name() << " n=" << n;

        int featureMismatches = 0;
        std::vector<float> one(dim);
        for (int i = 0; i < n; ++i) {
            enc.gatherFeature(pos[i], one.data());
            for (int ch = 0; ch < dim; ++ch)
                if (one[ch] != batch[static_cast<std::size_t>(ch) * n + i])
                    ++featureMismatches;
        }
        EXPECT_EQ(featureMismatches, 0) << enc.name() << " n=" << n;
    }

    const int n = static_cast<int>(pos.size());
    std::vector<MemAccess> scalarAcc, batchAcc;
    for (int i = 0; i < n; ++i)
        enc.gatherAccesses(pos[i], 42, scalarAcc);
    enc.gatherAccessesBatch(pos.data(), n, 42, batchAcc);

    ASSERT_EQ(scalarAcc.size(), batchAcc.size()) << enc.name();
    EXPECT_EQ(scalarAcc.size(),
              static_cast<std::size_t>(n) * enc.fetchesPerSample())
        << enc.name();
    int accessMismatches = 0;
    for (std::size_t i = 0; i < scalarAcc.size(); ++i)
        if (scalarAcc[i].addr != batchAcc[i].addr ||
            scalarAcc[i].bytes != batchAcc[i].bytes ||
            scalarAcc[i].rayId != batchAcc[i].rayId)
            ++accessMismatches;
    EXPECT_EQ(accessMismatches, 0) << enc.name();
}

TEST(BatchedGatherTest, DenseGridMatchesScalar)
{
    Scene s = test::tinyScene();
    for (GridLayout layout :
         {GridLayout::Linear, GridLayout::MVoxelBlocked}) {
        DenseGridEncoding grid(20, layout);
        grid.bake(s.field);
        expectBatchMatchesScalar(grid, 11);
    }
}

TEST(BatchedGatherTest, HashGridMatchesScalar)
{
    Scene s = test::tinyScene();
    HashGridConfig cfg;
    cfg.numLevels = 4;
    cfg.baseRes = 6;
    cfg.tableSize = 1u << 10; // force hashed (colliding) fine levels
    HashGridEncoding grid(cfg);
    grid.bake(s.field);
    expectBatchMatchesScalar(grid, 12);
}

TEST(BatchedGatherTest, HashGridNonPowerOfTwoTableMatchesScalar)
{
    // A non-power-of-two table cannot use the vector AND-mask modulo —
    // the kernel's per-lane fallback must still match the scalar hash.
    Scene s = test::tinyScene();
    HashGridConfig cfg;
    cfg.numLevels = 4;
    cfg.baseRes = 6;
    cfg.tableSize = 1000;
    HashGridEncoding grid(cfg);
    grid.bake(s.field);
    expectBatchMatchesScalar(grid, 15);
}

TEST(BatchedGatherTest, Fp16QuantizedFeaturesStayBitIdentical)
{
    // Quantizing feature storage to fp16 changes the stored values
    // (provably: re-rounding is then a no-op) but must not break the
    // batch/scalar identity — all paths read the same quantized table.
    Scene s = test::tinyScene();

    DenseGridEncoding dense(20);
    dense.bake(s.field);
    std::vector<float> before(kFeatureDim);
    Vec3 probe{0.37f, 0.52f, 0.81f};
    dense.gatherFeature(probe, before.data());
    EXPECT_FALSE(dense.featuresFp16());
    dense.quantizeFeaturesFp16();
    EXPECT_TRUE(dense.featuresFp16());
    std::vector<float> after(kFeatureDim);
    dense.gatherFeature(probe, after.data());
    EXPECT_NE(before, after); // baked values are not fp16-exact
    expectBatchMatchesScalar(dense, 21);

    // Re-baking keeps the quantization sticky.
    dense.bake(s.field);
    EXPECT_TRUE(dense.featuresFp16());
    std::vector<float> rebaked(kFeatureDim);
    dense.gatherFeature(probe, rebaked.data());
    EXPECT_EQ(after, rebaked);

    HashGridConfig cfg;
    cfg.numLevels = 4;
    cfg.baseRes = 6;
    cfg.tableSize = 1u << 10;
    HashGridEncoding hash(cfg);
    hash.bake(s.field);
    hash.quantizeFeaturesFp16();
    EXPECT_TRUE(hash.featuresFp16());
    expectBatchMatchesScalar(hash, 22);

    TensoRFConfig tcfg;
    tcfg.res = 24;
    tcfg.ranks = 2;
    tcfg.alsIters = 1;
    TensoRFEncoding tensorf(tcfg);
    tensorf.bake(s.field);
    tensorf.quantizeFeaturesFp16();
    EXPECT_TRUE(tensorf.featuresFp16());
    expectBatchMatchesScalar(tensorf, 23);
}

TEST(BatchedGatherTest, TensoRFMatchesScalar)
{
    Scene s = test::tinyScene();
    TensoRFConfig cfg;
    cfg.res = 24;
    cfg.ranks = 2;
    cfg.alsIters = 1;
    TensoRFEncoding enc(cfg);
    enc.bake(s.field);
    expectBatchMatchesScalar(enc, 13);
}

TEST(BatchedGatherTest, BaseClassFallbackLoopsScalarVirtuals)
{
    // An external encoding that only implements the scalar virtuals
    // must still work through the batch API (base-class fallback).
    struct MinimalEncoding : public Encoding
    {
        std::string name() const override { return "minimal"; }
        int featureDim() const override { return 2; }
        std::uint64_t modelBytes() const override { return 0; }
        std::uint32_t fetchesPerSample() const override { return 1; }
        std::uint64_t interpOpsPerSample() const override { return 0; }
        std::uint64_t indexOpsPerSample() const override { return 0; }
        void bake(const AnalyticField &) override {}
        void
        gatherFeature(const Vec3 &pn, float *out) const override
        {
            out[0] = pn.x + pn.y;
            out[1] = pn.z;
        }
        void
        gatherAccesses(const Vec3 &pn, std::uint32_t rayId,
                       std::vector<MemAccess> &out) const override
        {
            out.push_back(MemAccess{
                static_cast<std::uint64_t>(pn.x * 1000.0f), 4, rayId});
        }
        StreamPlan
        streamingFootprint(const std::vector<Vec3> &) const override
        {
            return StreamPlan{};
        }
    };

    MinimalEncoding enc;
    expectBatchMatchesScalar(enc, 14);
}

} // namespace
} // namespace cicero

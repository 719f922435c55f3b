/**
 * @file
 * Tests for StreamingRenderer over a hierarchical (hash-grid) encoding:
 * functional equivalence with the pixel-centric order, the per-level
 * dense/hashed split, and the streamed vs random DRAM traffic of each
 * kind of level.
 */

#include <gtest/gtest.h>

#include "cicero/streaming_renderer.hh"
#include "memory/dram_model.hh"
#include "nerf/hash_grid.hh"
#include "test_util.hh"

namespace cicero {
namespace {

struct HierFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        model = test::tinyHashModel();
        cam = test::tinyCamera(40);
    }

    std::unique_ptr<NerfModel> model;
    Camera cam;
};

TEST_F(HierFixture, MatchesPixelCentricImage)
{
    StreamingRenderer streaming(*model);
    RenderResult ours = streaming.render(cam);
    RenderResult ref = model->render(cam);
    EXPECT_GT(psnr(ours.image, ref.image), 45.0);
}

TEST_F(HierFixture, SplitsLevelsByStorage)
{
    StreamingRenderer streaming(*model);
    streaming.render(cam);
    auto stats = streaming.lastStats();
    auto *grid =
        dynamic_cast<const HashGridEncoding *>(&model->encoding());
    EXPECT_EQ(stats.denseLevels, grid->revertLevel());
    EXPECT_EQ(stats.denseLevels + stats.hashedLevels,
              grid->config().numLevels);
    EXPECT_GT(stats.streamedBytes, 0u);
    EXPECT_GT(stats.randomBytes, 0u);
}

TEST_F(HierFixture, HashedLevelsDominateRandomTraffic)
{
    // The paper: Instant-NGP reverts mid-hierarchy, leaving about half
    // (here: the hashed share) of DRAM traffic non-streaming.
    StreamingRenderer streaming(*model);
    streaming.render(cam);
    auto stats = streaming.lastStats();
    // Hashed levels re-fetch per sample while dense levels stream each
    // block once, so random bytes dominate by volume here (with this
    // small table config nearly all traffic is hashed); both kinds
    // must be present.
    EXPECT_GT(stats.nonStreamingFraction(), 0.5);
    EXPECT_GT(stats.streamedBytes, 0u);
}

TEST_F(HierFixture, DenseLevelTrafficIsStreamingAtTheDram)
{
    // Feed only the trace into the DRAM model: dense-level block loads
    // burst-split into sequential accesses; hashed fetches are random.
    StreamingRenderer streaming(*model);
    DramModel dram;
    streaming.render(cam, &dram);
    auto stats = streaming.lastStats();
    // Streamed bytes vastly outnumber per-burst boundaries, so the
    // overall streaming fraction must exceed the byte share of dense
    // levels discounted by block-boundary jumps.
    double denseShare =
        static_cast<double>(stats.streamedBytes) /
        (stats.streamedBytes + stats.randomBytes);
    EXPECT_GT(1.0 - dram.stats().nonStreamingFraction(),
              0.8 * denseShare);
}

TEST_F(HierFixture, WorkCountersPopulated)
{
    StreamingRenderer streaming(*model);
    RenderResult r = streaming.render(cam);
    EXPECT_EQ(r.work.rays, 40u * 40);
    EXPECT_EQ(r.work.vertexFetches,
              r.work.samples * 8ull * 5);
    EXPECT_GT(r.work.mlpMacs, 0u);
}

TEST(HierarchicalStreamingTest, AllDenseConfigFullyStreams)
{
    Scene s = test::tinyScene();
    HashGridConfig cfg;
    cfg.numLevels = 3;
    cfg.baseRes = 4;
    cfg.perLevelScale = 2.0f;
    cfg.tableSize = 1u << 16; // every level fits densely
    SamplerConfig sampler;
    sampler.stepsAcross = 64;
    sampler.occupancyRes = 24;
    NerfModel model(s, std::make_unique<HashGridEncoding>(cfg), 4096,
                    sampler);
    StreamingRenderer streaming(model);
    streaming.render(test::tinyCamera(32));
    EXPECT_EQ(streaming.lastStats().randomBytes, 0u);
    EXPECT_EQ(streaming.lastStats().hashedLevels, 0);
}

} // namespace
} // namespace cicero

/**
 * @file
 * Tests for the fully-streaming (memory-centric) renderer over dense
 * grids and hash grids: functional equivalence with the pixel-centric
 * order, single-visit streaming DRAM behaviour, boundary
 * partial-interpolation accounting and bit-identity across pool
 * widths. The per-level dense/hashed split of a hash grid is covered
 * in cicero_hierarchical_test.cc.
 */

#include <gtest/gtest.h>

#include <unordered_set>

#include "cicero/streaming_renderer.hh"
#include "common/parallel.hh"
#include "memory/dram_model.hh"
#include "nerf/tensorf.hh"
#include "test_util.hh"

namespace cicero {
namespace {

struct StreamingFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        model = test::tinyModel(GridLayout::MVoxelBlocked, 24);
        cam = test::tinyCamera(40);
    }

    std::unique_ptr<NerfModel> model;
    Camera cam;
};

TEST_F(StreamingFixture, MatchesPixelCentricImage)
{
    StreamingRenderer streaming(*model);
    RenderResult ours = streaming.render(cam);
    RenderResult ref = model->render(cam);
    // Identical up to the early-termination cutoff (T < 1e-3), which
    // the memory-centric order cannot exploit.
    double worst = 0.0;
    for (std::size_t i = 0; i < ours.image.pixelCount(); ++i) {
        worst = std::max(
            worst, (double)std::fabs(ours.image.at(i).x -
                                     ref.image.at(i).x));
        worst = std::max(
            worst, (double)std::fabs(ours.image.at(i).y -
                                     ref.image.at(i).y));
    }
    EXPECT_LT(worst, 5e-3);
    EXPECT_GT(psnr(ours.image, ref.image), 45.0);
}

TEST_F(StreamingFixture, DepthMatchesToo)
{
    StreamingRenderer streaming(*model);
    RenderResult ours = streaming.render(cam);
    RenderResult ref = model->render(cam);
    for (int y = 0; y < 40; ++y) {
        for (int x = 0; x < 40; ++x) {
            float a = ours.depth.at(x, y);
            float b = ref.depth.at(x, y);
            if (std::isfinite(a) && std::isfinite(b)) {
                EXPECT_NEAR(a, b, 2e-2f);
            }
        }
    }
}

TEST_F(StreamingFixture, DramTrafficIsFullyStreaming)
{
    StreamingRenderer streaming(*model);
    DramModel dram;
    streaming.render(cam, &dram);
    // Chunked MVoxel loads burst-split into sequential accesses: the
    // non-streaming fraction collapses (vs >60% for pixel-centric).
    EXPECT_LT(dram.stats().nonStreamingFraction(), 0.05);
}

TEST_F(StreamingFixture, PixelCentricTrafficIsNot)
{
    DramModel dram;
    WarpInterleaver il(32);
    il.addSink(&dram);
    model->traceWorkload(cam, &il);
    // Even on this small grid (which coalesces unusually well) the
    // pixel-centric order is an order of magnitude less streaming than
    // the memory-centric one (< 0.05 above).
    EXPECT_GT(dram.stats().nonStreamingFraction(), 0.15);
}

TEST_F(StreamingFixture, EachMVoxelLoadedAtMostOnce)
{
    StreamingRenderer streaming(*model);
    TraceRecorder rec;
    streaming.render(cam, &rec);
    std::unordered_set<std::uint64_t> seen;
    for (const MemAccess &a : rec.trace()) {
        EXPECT_TRUE(seen.insert(a.addr).second)
            << "MVoxel at " << a.addr << " loaded twice";
    }
    EXPECT_EQ(seen.size(), streaming.lastStats().blocksLoaded);
}

TEST_F(StreamingFixture, MVoxelsStreamInAddressOrder)
{
    StreamingRenderer streaming(*model);
    TraceRecorder rec;
    streaming.render(cam, &rec);
    for (std::size_t i = 1; i < rec.trace().size(); ++i)
        EXPECT_GT(rec.trace()[i].addr, rec.trace()[i - 1].addr);
}

TEST_F(StreamingFixture, StatsConsistentWithFootprint)
{
    StreamingRenderer streaming(*model);
    streaming.render(cam);
    auto stats = streaming.lastStats();

    auto positions = model->collectSamplePositions(cam);
    // The footprint helper uses the same (occupied) sample set the
    // pixel-centric sampler produces; streaming marches the same rays,
    // so entry counts agree.
    StreamPlan plan =
        model->encoding().streamingFootprint(positions);
    EXPECT_EQ(stats.ritEntries, plan.ritEntries);
    EXPECT_EQ(stats.ritBytes, plan.ritBytes);
    EXPECT_EQ(stats.streamedBytes, plan.streamedBytes);
}

TEST_F(StreamingFixture, BoundaryEntriesExist)
{
    StreamingRenderer streaming(*model);
    streaming.render(cam);
    auto stats = streaming.lastStats();
    // With 24^3 voxels in 8^3-vertex blocks, many samples straddle
    // block boundaries; partial interpolation must be exercised.
    EXPECT_GT(stats.boundaryEntries, 0u);
    EXPECT_GT(stats.ritEntries, stats.samples);
}

TEST_F(StreamingFixture, WorkCountersPopulated)
{
    StreamingRenderer streaming(*model);
    RenderResult r = streaming.render(cam);
    EXPECT_EQ(r.work.rays, 40u * 40);
    EXPECT_GT(r.work.samples, 0u);
    EXPECT_EQ(r.work.vertexFetches, r.work.samples * 8);
    EXPECT_EQ(r.work.gatherBytes, streaming.lastStats().streamedBytes);
}

TEST(StreamingRendererTest, DenseGridIsOneDenseLevel)
{
    auto model = test::tinyModel(GridLayout::MVoxelBlocked, 24);
    StreamingRenderer streaming(*model);
    streaming.render(test::tinyCamera(24));
    const StreamingRenderer::Stats &stats = streaming.lastStats();
    EXPECT_EQ(stats.denseLevels, 1);
    EXPECT_EQ(stats.hashedLevels, 0);
    EXPECT_EQ(stats.randomBytes, 0u);
    EXPECT_EQ(stats.nonStreamingFraction(), 0.0);
}

TEST(StreamingRendererTest, RejectsTensoRF)
{
    // Only dense grids and hash grids have vertex levels to stream.
    Scene s = test::tinyScene();
    SamplerConfig cfg;
    cfg.stepsAcross = 32;
    cfg.occupancyRes = 16;
    TensoRFConfig tcfg;
    tcfg.res = 16;
    tcfg.ranks = 1;
    tcfg.alsIters = 1;
    NerfModel model(s, std::make_unique<TensoRFEncoding>(tcfg), 1000,
                    cfg);
    EXPECT_THROW(StreamingRenderer r(model), std::invalid_argument);
}

TEST(StreamingRendererTest, RejectsBlocksWiderThan256Vertices)
{
    // RIT entries hold block-local vertex coordinates in 8 bits.
    Scene s = test::tinyScene();
    SamplerConfig cfg;
    cfg.stepsAcross = 32;
    cfg.occupancyRes = 16;
    NerfModel model(s,
                    std::make_unique<DenseGridEncoding>(
                        8, GridLayout::MVoxelBlocked, 257),
                    1000, cfg);
    EXPECT_THROW(StreamingRenderer r(model), std::invalid_argument);
}

TEST(StreamingRendererTest, FewerBytesThanPixelCentricMisses)
{
    // The FS promise: streamed unique-voxel traffic is far below the
    // miss traffic of the pixel-centric order.
    auto model = test::tinyModel(GridLayout::MVoxelBlocked, 32);
    Camera cam = test::tinyCamera(40);

    StreamingRenderer streaming(*model);
    streaming.render(cam);
    std::uint64_t streamed = streaming.lastStats().streamedBytes;

    StageWork w = model->traceWorkload(cam);
    // Pixel-centric touches gatherBytes total (before any cache).
    EXPECT_LT(streamed, w.gatherBytes / 4);
}

TEST(StreamingRendererTest, BitIdenticalAcrossThreadCounts)
{
    // Dense levels parallelize their RIT build and merge while the
    // block walk stays address-ordered; hashed levels gather
    // sample-parallel behind a TraceCapture. Image, depth, every stat
    // and the full trace stream must be byte-identical to the 1-thread
    // run at any pool width, for a dense grid and a hash grid alike.
    struct Guard
    {
        ~Guard() { setParallelThreadCount(0); }
    } guard;

    std::unique_ptr<NerfModel> models[] = {
        test::tinyModel(GridLayout::MVoxelBlocked, 24),
        test::tinyHashModel()};
    const Camera cam = test::tinyCamera(40);
    for (const auto &model : models) {
        const std::string name = model->encoding().name();
        StreamingRenderer streaming(*model);
        setParallelThreadCount(1);
        TraceRecorder rec1;
        RenderResult serial = streaming.render(cam, &rec1);
        const StreamingRenderer::Stats stats1 = streaming.lastStats();
        EXPECT_GT(rec1.trace().size(), 0u) << name;

        for (int threads : {4, 7}) {
            SCOPED_TRACE(name + " at " + std::to_string(threads) +
                         " threads");
            setParallelThreadCount(threads);
            TraceRecorder recN;
            RenderResult parallel = streaming.render(cam, &recN);
            const StreamingRenderer::Stats &statsN =
                streaming.lastStats();

            std::size_t mismatches = 0;
            for (std::size_t i = 0; i < serial.image.pixelCount(); ++i)
                if (serial.image.at(i).x != parallel.image.at(i).x ||
                    serial.image.at(i).y != parallel.image.at(i).y ||
                    serial.image.at(i).z != parallel.image.at(i).z)
                    ++mismatches;
            EXPECT_EQ(mismatches, 0u);
            std::size_t depthMismatches = 0;
            for (int y = 0; y < cam.height; ++y)
                for (int x = 0; x < cam.width; ++x) {
                    float a = serial.depth.at(x, y);
                    float b = parallel.depth.at(x, y);
                    if (!(a == b || (a != a && b != b)))
                        ++depthMismatches;
                }
            EXPECT_EQ(depthMismatches, 0u);

            EXPECT_EQ(stats1.samples, statsN.samples);
            EXPECT_EQ(stats1.ritEntries, statsN.ritEntries);
            EXPECT_EQ(stats1.ritBytes, statsN.ritBytes);
            EXPECT_EQ(stats1.boundaryEntries, statsN.boundaryEntries);
            EXPECT_EQ(stats1.blocksLoaded, statsN.blocksLoaded);
            EXPECT_EQ(stats1.streamedBytes, statsN.streamedBytes);
            EXPECT_EQ(stats1.randomBytes, statsN.randomBytes);
            EXPECT_EQ(stats1.denseLevels, statsN.denseLevels);
            EXPECT_EQ(stats1.hashedLevels, statsN.hashedLevels);

            ASSERT_EQ(rec1.trace().size(), recN.trace().size());
            std::size_t traceMismatches = 0;
            for (std::size_t i = 0; i < rec1.trace().size(); ++i) {
                const MemAccess &a = rec1.trace()[i];
                const MemAccess &b = recN.trace()[i];
                if (a.addr != b.addr || a.bytes != b.bytes ||
                    a.rayId != b.rayId)
                    ++traceMismatches;
            }
            EXPECT_EQ(traceMismatches, 0u);
        }
    }
}

} // namespace
} // namespace cicero

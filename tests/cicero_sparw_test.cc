/**
 * @file
 * Tests for the SPARW pipeline: windowing, reference accounting, the
 * temporal and downsampled comparison strategies, and quality ordering.
 */

#include <gtest/gtest.h>

#include "cicero/sparw.hh"
#include "common/parallel.hh"
#include "test_util.hh"

namespace cicero {
namespace {

struct SparwFixture : public ::testing::Test
{
    void
    SetUp() override
    {
        model = test::tinyModel();
        intrinsics = test::tinyCamera(40);
        traj = test::tinyOrbit(12, 20.0f);
    }

    SparwConfig
    config(int window)
    {
        SparwConfig c;
        c.window = window;
        return c;
    }

    std::unique_ptr<NerfModel> model;
    Camera intrinsics;
    std::vector<Pose> traj;
};

TEST_F(SparwFixture, OneReferencePerWindow)
{
    SparwPipeline pipe(*model, intrinsics, config(4));
    SparwRun run = pipe.run(traj);
    EXPECT_EQ(run.frames.size(), 12u);
    EXPECT_EQ(run.references.size(), 3u); // ceil(12 / 4)
    // Frames reference the right window.
    EXPECT_EQ(run.frames[0].referenceIndex, 0);
    EXPECT_EQ(run.frames[3].referenceIndex, 0);
    EXPECT_EQ(run.frames[4].referenceIndex, 1);
    EXPECT_EQ(run.frames[11].referenceIndex, 2);
}

TEST_F(SparwFixture, FirstReferenceOnTrajectoryRestExtrapolated)
{
    SparwPipeline pipe(*model, intrinsics, config(4));
    SparwRun run = pipe.run(traj);
    EXPECT_TRUE(run.references[0].onTrajectory);
    EXPECT_FALSE(run.references[1].onTrajectory);
    EXPECT_FALSE(run.references[2].onTrajectory);
}

TEST_F(SparwFixture, ReferenceWorkDominatesSparseWork)
{
    SparwPipeline pipe(*model, intrinsics, config(6));
    SparwRun run = pipe.run(traj);
    StageWork refW = run.totalReferenceWork();
    StageWork sparseW = run.totalSparseWork();
    EXPECT_GT(refW.samples, sparseW.samples);
    EXPECT_GT(sparseW.rays, 0u);
}

TEST_F(SparwFixture, SparwAvoidsMostNerfComputation)
{
    // The headline claim: SPARW avoids the large majority of per-frame
    // NeRF work relative to rendering every frame fully.
    SparwPipeline pipe(*model, intrinsics, config(6));
    SparwRun run = pipe.run(traj);

    std::uint64_t fullSamples = 0;
    for (const Pose &p : traj) {
        Camera cam = intrinsics;
        cam.pose = p;
        fullSamples += model->render(cam).work.samples;
    }
    std::uint64_t sparwSamples = run.totalReferenceWork().samples +
                                 run.totalSparseWork().samples;
    EXPECT_LT(sparwSamples, fullSamples / 2);
}

TEST_F(SparwFixture, QualityCloseToFullRendering)
{
    SparwPipeline pipe(*model, intrinsics, config(6));
    SparwRun run = pipe.run(traj);
    double worst = 1e9;
    for (std::size_t i = 0; i < traj.size(); ++i) {
        Camera cam = intrinsics;
        cam.pose = traj[i];
        RenderResult full = model->render(cam);
        worst = std::min(worst, psnr(run.frames[i].image, full.image));
    }
    EXPECT_GT(worst, 24.0);
}

TEST_F(SparwFixture, LargerWindowLowerQuality)
{
    auto meanPsnr = [&](int window) {
        SparwPipeline pipe(*model, intrinsics, config(window));
        SparwRun run = pipe.run(traj);
        double acc = 0.0;
        for (std::size_t i = 0; i < traj.size(); ++i) {
            Camera cam = intrinsics;
            cam.pose = traj[i];
            RenderResult full = model->render(cam);
            acc += std::min(60.0, psnr(run.frames[i].image, full.image));
        }
        return acc / traj.size();
    };
    // Fig. 22: quality decreases with window size.
    EXPECT_GT(meanPsnr(2), meanPsnr(12) - 0.5);
}

TEST_F(SparwFixture, TemporalStrategyAccumulatesError)
{
    // TEMP-N warps from warped outputs; CICERO warps from full renders.
    // By the end of the trajectory TEMP should be no better.
    SparwPipeline pipe(*model, intrinsics, config(4));
    SparwRun cicero = pipe.run(traj);
    SparwRun temp = pipe.runTemporal(traj);
    ASSERT_EQ(temp.frames.size(), cicero.frames.size());

    Camera cam = intrinsics;
    cam.pose = traj.back();
    RenderResult full = model->render(cam);
    double ciceroLast =
        std::min(60.0, psnr(cicero.frames.back().image, full.image));
    double tempLast =
        std::min(60.0, psnr(temp.frames.back().image, full.image));
    EXPECT_GE(ciceroLast + 0.5, tempLast);
}

TEST_F(SparwFixture, TemporalUsesSingleFullRender)
{
    SparwPipeline pipe(*model, intrinsics, config(4));
    SparwRun temp = pipe.runTemporal(traj);
    EXPECT_EQ(temp.references.size(), 1u);
    EXPECT_TRUE(temp.references[0].onTrajectory);
}

TEST_F(SparwFixture, DownsampledRendersEveryFrameSmaller)
{
    SparwPipeline pipe(*model, intrinsics, config(4));
    SparwRun ds = pipe.runDownsampled(traj, 2);
    EXPECT_EQ(ds.frames.size(), traj.size());
    EXPECT_EQ(ds.references.size(), traj.size());
    // Full-resolution output images.
    EXPECT_EQ(ds.frames[0].image.width(), 40);
    // Quarter the rays of a full render.
    EXPECT_EQ(ds.references[0].work.rays, 20u * 20);
}

TEST_F(SparwFixture, DownsampledLosesDetailVsSparw)
{
    SparwPipeline pipe(*model, intrinsics, config(6));
    SparwRun sparw = pipe.run(traj);
    SparwRun ds = pipe.runDownsampled(traj, 2);
    double sparwAcc = 0.0, dsAcc = 0.0;
    for (std::size_t i = 0; i < traj.size(); ++i) {
        Camera cam = intrinsics;
        cam.pose = traj[i];
        RenderResult full = model->render(cam);
        sparwAcc += std::min(60.0, psnr(sparw.frames[i].image, full.image));
        dsAcc += std::min(60.0, psnr(ds.frames[i].image, full.image));
    }
    // Fig. 16: SPARW (window 6) beats DS-2 on synthetic scenes.
    EXPECT_GT(sparwAcc, dsAcc);
}

TEST_F(SparwFixture, MeanOverlapHighAtVideoRate)
{
    SparwPipeline pipe(*model, intrinsics, config(4));
    SparwRun run = pipe.run(traj);
    // Warped + void dominates; sparse re-render fraction is small.
    EXPECT_LT(run.meanRerender(), 0.1);
}

TEST_F(SparwFixture, RealtimeUnlimitedBudgetReproducesRun)
{
    // With an effectively infinite budget no deadline can pass:
    // every window gets its predicted reference and the real-time
    // driver must reproduce run() bit for bit — same frames, same
    // references in the same order, zero misses, zero fallbacks.
    struct Guard
    {
        ~Guard() { setParallelThreadCount(0); }
    } guard;

    SparwPipeline pipe(*model, intrinsics, config(4));
    SparwRealtimeConfig rt;
    rt.frameBudgetS = 1e9f;

    setParallelThreadCount(1);
    SparwRun baseline = pipe.run(traj);

    for (int threads : {1, 4}) {
        setParallelThreadCount(threads);
        SparwRealtimeRun rr = pipe.runRealtime(traj, rt);
        EXPECT_EQ(rr.deadline.frames, 12);
        EXPECT_EQ(rr.deadline.deadlineMisses, 0);
        EXPECT_EQ(rr.deadline.fallbackFrames, 0);
        EXPECT_EQ(rr.deadline.predictedReferences, 2);
        EXPECT_EQ(rr.deadline.missRate(), 0.0);
        EXPECT_EQ(rr.deadline.fallbackRate(), 0.0);
        ASSERT_EQ(rr.run.frames.size(), baseline.frames.size());
        ASSERT_EQ(rr.run.references.size(), baseline.references.size());
        for (std::size_t i = 0; i < rr.run.frames.size(); ++i) {
            const SparwFrame &a = baseline.frames[i];
            const SparwFrame &b = rr.run.frames[i];
            EXPECT_EQ(a.referenceIndex, b.referenceIndex);
            std::size_t mismatches = 0;
            for (std::size_t p = 0; p < a.image.pixelCount(); ++p)
                if (a.image.at(p).x != b.image.at(p).x ||
                    a.image.at(p).y != b.image.at(p).y ||
                    a.image.at(p).z != b.image.at(p).z)
                    ++mismatches;
            EXPECT_EQ(mismatches, 0u) << "frame " << i << " at "
                                      << threads << " threads";
        }
        for (std::size_t i = 0; i < rr.run.references.size(); ++i)
            EXPECT_EQ(rr.run.references[i].work.samples,
                      baseline.references[i].work.samples);
    }
}

TEST_F(SparwFixture, RealtimeZeroBudgetReproducesDownsampled)
{
    // With a zero budget every deadline has passed before any
    // reference could be submitted: every window falls back, and the
    // frame images must equal runDownsampled(fallbackFactor) bit for
    // bit. Every frame also lands after its (already-expired)
    // deadline.
    struct Guard
    {
        ~Guard() { setParallelThreadCount(0); }
    } guard;

    SparwPipeline pipe(*model, intrinsics, config(4));
    SparwRealtimeConfig rt;
    rt.frameBudgetS = 0.0f;

    setParallelThreadCount(1);
    SparwRun dsBaseline = pipe.runDownsampled(traj, rt.fallbackFactor);

    for (int threads : {1, 4}) {
        setParallelThreadCount(threads);
        SparwRealtimeRun rr = pipe.runRealtime(traj, rt);
        EXPECT_EQ(rr.deadline.frames, 12);
        EXPECT_EQ(rr.deadline.fallbackFrames, 12);
        EXPECT_EQ(rr.deadline.deadlineMisses, 12);
        EXPECT_EQ(rr.deadline.predictedReferences, 0);
        EXPECT_EQ(rr.deadline.fallbackRate(), 1.0);
        EXPECT_EQ(rr.deadline.missRate(), 1.0);
        ASSERT_EQ(rr.run.frames.size(), dsBaseline.frames.size());
        for (std::size_t i = 0; i < rr.run.frames.size(); ++i) {
            const Image &a = dsBaseline.frames[i].image;
            const Image &b = rr.run.frames[i].image;
            ASSERT_EQ(a.pixelCount(), b.pixelCount());
            std::size_t mismatches = 0;
            for (std::size_t p = 0; p < a.pixelCount(); ++p)
                if (a.at(p).x != b.at(p).x || a.at(p).y != b.at(p).y ||
                    a.at(p).z != b.at(p).z)
                    ++mismatches;
            EXPECT_EQ(mismatches, 0u) << "frame " << i << " at "
                                      << threads << " threads";
        }
    }
}

TEST_F(SparwFixture, RealtimeStatsAreConsistent)
{
    // Whatever the budget, the accounting must add up: frames equals
    // the trajectory length, fallbacks and misses stay within it, and
    // every frame got an image of full resolution.
    SparwPipeline pipe(*model, intrinsics, config(4));
    SparwRealtimeConfig rt;
    rt.frameBudgetS = 0.005f;
    SparwRealtimeRun rr = pipe.runRealtime(traj, rt);
    EXPECT_EQ(rr.deadline.frames, 12);
    EXPECT_GE(rr.deadline.deadlineMisses, 0);
    EXPECT_LE(rr.deadline.deadlineMisses, 12);
    EXPECT_GE(rr.deadline.fallbackFrames, 0);
    EXPECT_LE(rr.deadline.fallbackFrames, 12);
    EXPECT_GT(rr.deadline.wallS, 0.0);
    ASSERT_EQ(rr.run.frames.size(), 12u);
    for (const SparwFrame &f : rr.run.frames) {
        EXPECT_EQ(f.image.width(), intrinsics.width);
        EXPECT_EQ(f.image.height(), intrinsics.height);
        EXPECT_GE(f.referenceIndex, 0);
        EXPECT_LT(f.referenceIndex,
                  static_cast<int>(rr.run.references.size()));
    }
}

TEST_F(SparwFixture, RunStatsAggregates)
{
    SparwPipeline pipe(*model, intrinsics, config(3));
    SparwRun run = pipe.run(traj);
    StageWork sparse = run.totalSparseWork();
    std::uint64_t rays = 0;
    for (const auto &f : run.frames)
        rays += f.sparseWork.rays;
    EXPECT_EQ(sparse.rays, rays);
}

} // namespace
} // namespace cicero

/**
 * @file
 * Tests for the composed performance model: variant orderings, scenario
 * behaviours and breakdown consistency — the qualitative claims of
 * Figs. 17-24 as invariants.
 */

#include <algorithm>
#include <cstring>

#include <gtest/gtest.h>

#include "accel/accel_replay.hh"
#include "cicero/pipeline.hh"
#include "cicero/probe.hh"
#include "test_util.hh"

namespace cicero {
namespace {

/** Probed once and shared: workload inputs for the tiny model. */
const WorkloadInputs &
inputs()
{
    static WorkloadInputs in = [] {
        // The model must exceed the 2 MB on-chip buffer for the
        // pixel-centric inefficiencies (the baseline's whole problem)
        // to exist, as every paper-scale model does.
        auto model = test::tinyModel(GridLayout::MVoxelBlocked, 72);
        auto traj = test::tinyOrbit(18);
        ProbeOptions opts;
        opts.traceRes = 48;
        opts.window = 8;
        WorkloadInputs w = probeWorkload(*model, traj, opts);
        return w;
    }();
    return in;
}

/**
 * inputs() with a full-frame plan whose hashed-level residue bounds
 * the software streaming gather on the default GPU (25.6 GB/s, 8x
 * random derating, 1 G fetches/s): 256 MB streamed take 10 ms, 32 MB
 * random another 10 ms, and 100 k RIT entries issue in 2 ms.
 */
WorkloadInputs
randomHeavyInputs()
{
    WorkloadInputs w = inputs();
    w.fullStreamPlan.streamedBytes = 256'000'000;
    w.fullStreamPlan.randomBytes = 32'000'000;
    w.fullStreamPlan.ritEntries = 100'000;
    w.fullStreamPlan.ritBytes = 4'800'000;
    return w;
}

TEST(PerformanceModelTest, LocalVariantOrdering)
{
    PerformanceModel pm;
    double base =
        pm.priceLocal(SystemVariant::Baseline, inputs()).timeMs;
    double sparw = pm.priceLocal(SystemVariant::Sparw, inputs()).timeMs;
    double fs = pm.priceLocal(SystemVariant::SparwFs, inputs()).timeMs;
    double cicero =
        pm.priceLocal(SystemVariant::Cicero, inputs()).timeMs;
    // Fig. 19a ordering.
    EXPECT_GT(base, sparw);
    EXPECT_GT(sparw, fs);
    EXPECT_GE(fs, cicero);
    // SPARW alone is several-fold (paper: 8.1x).
    EXPECT_GT(base / sparw, 3.0);
    // Full Cicero is an order of magnitude or more (paper: 28.2x).
    EXPECT_GT(base / cicero, 10.0);
}

TEST(PerformanceModelTest, LocalEnergyOrdering)
{
    PerformanceModel pm;
    double base =
        pm.priceLocal(SystemVariant::Baseline, inputs()).energyNj;
    double sparw =
        pm.priceLocal(SystemVariant::Sparw, inputs()).energyNj;
    double cicero =
        pm.priceLocal(SystemVariant::Cicero, inputs()).energyNj;
    EXPECT_GT(base, sparw);
    EXPECT_GT(sparw, cicero);
    EXPECT_GT(base / cicero, 10.0); // paper: 37.8x
}

TEST(PerformanceModelTest, RemoteBaselineEnergyIsWirelessOnly)
{
    PerformanceModel pm;
    FramePrice base = pm.priceRemote(SystemVariant::Baseline, inputs());
    // Device energy = frame bytes * 100 nJ/B.
    double expect = inputs().framePixels * 3.0 * 100.0;
    EXPECT_NEAR(base.energyNj, expect, expect * 1e-6);
}

TEST(PerformanceModelTest, RemoteBaselineBeatsLocalOnEnergy)
{
    // Sec. VI-C observation: offloading everything leaves the device
    // paying wireless energy only, below any local rendering variant.
    // (Whether it also beats remote-Cicero depends on the sparse
    // workload's size; the Fig. 19b row of bench_claims checks that
    // comparison at paper scale.)
    PerformanceModel pm;
    double base =
        pm.priceRemote(SystemVariant::Baseline, inputs()).energyNj;
    for (SystemVariant v :
         {SystemVariant::Baseline, SystemVariant::Sparw}) {
        EXPECT_LT(base, pm.priceLocal(v, inputs()).energyNj)
            << variantName(v);
    }
}

TEST(PerformanceModelTest, RemoteSpeedOrdering)
{
    PerformanceModel pm;
    double base =
        pm.priceRemote(SystemVariant::Baseline, inputs()).timeMs;
    double sparw =
        pm.priceRemote(SystemVariant::Sparw, inputs()).timeMs;
    double cicero =
        pm.priceRemote(SystemVariant::Cicero, inputs()).timeMs;
    EXPECT_GT(base, sparw);
    EXPECT_GE(sparw, cicero);
}

TEST(PerformanceModelTest, GatherGuBeatsGpu)
{
    PerformanceModel pm;
    auto g = pm.priceGatherOnly(inputs());
    // Fig. 20: large speedup and much larger energy reduction.
    EXPECT_GT(g.gpuMs / g.guMs, 5.0);
    EXPECT_GT(g.gpuEnergyNj / g.guEnergyNj, 20.0);
}

TEST(PerformanceModelTest, WindowAmortizesReference)
{
    PerformanceModel pm;
    WorkloadInputs w8 = inputs();
    WorkloadInputs w2 = inputs();
    w2.window = 2;
    w8.window = 8;
    double t2 = pm.priceLocal(SystemVariant::Sparw, w2).timeMs;
    double t8 = pm.priceLocal(SystemVariant::Sparw, w8).timeMs;
    EXPECT_GT(t2, t8);
}

TEST(PerformanceModelTest, SpeedupPlateausAtLargeWindows)
{
    // Fig. 22a: beyond some window the per-frame sparse+warp cost
    // dominates and further amortization stops helping.
    PerformanceModel pm;
    WorkloadInputs w = inputs();
    w.window = 128;
    double t128 = pm.priceLocal(SystemVariant::Cicero, w).timeMs;
    w.window = 512;
    double t512 = pm.priceLocal(SystemVariant::Cicero, w).timeMs;
    EXPECT_LT(t128 - t512, 0.35 * t128);
}

TEST(PerformanceModelTest, BreakdownSumsToTotal)
{
    PerformanceModel pm;
    FramePrice p = pm.priceLocal(SystemVariant::Sparw, inputs());
    EXPECT_NEAR(p.timeMs, p.fullFrameMs + p.sparseMs + p.warpMs, 1e-9);
    EXPECT_GT(p.fullFrameMs, 0.0);
    EXPECT_GT(p.warpMs, 0.0);
}

TEST(PerformanceModelTest, BaselineHasNoWarpShare)
{
    PerformanceModel pm;
    FramePrice p = pm.priceLocal(SystemVariant::Baseline, inputs());
    EXPECT_EQ(p.warpMs, 0.0);
    EXPECT_EQ(p.sparseMs, 0.0);
}

TEST(PerformanceModelTest, FsReducesDramEnergy)
{
    PerformanceModel pm;
    FramePrice sparw = pm.priceFullFrame(SystemVariant::Sparw, inputs());
    FramePrice fs = pm.priceFullFrame(SystemVariant::SparwFs, inputs());
    EXPECT_LT(fs.dramEnergyNj, sparw.dramEnergyNj);
}

TEST(PerformanceModelTest, SoftwareFsGatherPaysItsRandomResidue)
{
    PerformanceModel pm;
    const WorkloadInputs w = randomHeavyInputs();
    const GpuModel &gpu = pm.localGpu();
    const double gatherMs = gpu.streamingGatherMs(w.fullStreamPlan);
    // Streamed and random DRAM time add; the 2 ms of issue does not bind.
    EXPECT_NEAR(gatherMs, 20.0, 1e-9);

    GpuStageTimes t = gpu.timeNerfFrame(w.fullFrame, w.gatherProfile);
    double want = t.indexMs + t.compositeMs + gatherMs +
                  pm.npu().mlpTimeMs(w.fullFrame.mlpMacs);
    EXPECT_EQ(pm.priceFullFrame(SystemVariant::SparwFs, w).timeMs, want);
}

TEST(PerformanceModelTest, GuAndSoftwareFsChargeOnePlanDramEnergy)
{
    PerformanceModel pm;
    const WorkloadInputs w = randomHeavyInputs();
    GuCost gu = pm.gu().price(w.fullStreamPlan, w.vertexBytes,
                              pm.localGpu().config().dram, pm.energy());
    EXPECT_EQ(pm.priceFullFrame(SystemVariant::SparwFs, w).dramEnergyNj,
              gu.dramEnergyNj);
    EXPECT_EQ(pm.priceFullFrame(SystemVariant::Cicero, w).dramEnergyNj,
              gu.dramEnergyNj);
    // MVoxels and the RIT at the streaming price, the residue at the
    // random price.
    const EnergyConstants &e = pm.energy();
    double want = (256e6 + 4.8e6) * e.dramStreamPjPerByte * 1e-3 +
                  32e6 * e.dramRandomPjPerByte * 1e-3;
    EXPECT_NEAR(gu.dramEnergyNj, want, want * 1e-12);
}

TEST(PerformanceModelTest, SparseDramShareScalesWithDispatchOverhead)
{
    PerformanceModel pm;
    const WorkloadInputs &w = inputs();
    // The sparse pixels priced alone, before the dispatch overhead.
    WorkloadInputs sparseOnly = w;
    sparseOnly.fullFrame = w.sparsePerFrame;
    sparseOnly.fullStreamPlan = w.sparseStreamPlan;
    const double overhead = pm.localGpu().config().sparseDispatchOverhead;
    const double n = std::max(1, w.window);
    for (SystemVariant v : {SystemVariant::Sparw, SystemVariant::SparwFs,
                            SystemVariant::Cicero}) {
        const double sparse = pm.priceFullFrame(v, sparseOnly).dramEnergyNj;
        ASSERT_GT(sparse, 0.0) << variantName(v);
        EXPECT_DOUBLE_EQ(pm.priceLocal(v, w).dramEnergyNj,
                         pm.priceFullFrame(v, w).dramEnergyNj / n +
                             overhead * sparse)
            << variantName(v);
        EXPECT_DOUBLE_EQ(pm.priceRemote(v, w).dramEnergyNj,
                         overhead * sparse)
            << variantName(v);
    }
}

TEST(PerformanceModelTest, VariantNames)
{
    EXPECT_STREQ(variantName(SystemVariant::Baseline), "Baseline");
    EXPECT_STREQ(variantName(SystemVariant::Cicero), "CICERO");
}

TEST(ProbeTest, InputsSane)
{
    const WorkloadInputs &in = inputs();
    EXPECT_GT(in.fullFrame.rays, 0u);
    EXPECT_GT(in.fullFrame.samples, in.fullFrame.rays);
    EXPECT_GT(in.gatherProfile.randomFraction, 0.0);
    EXPECT_LT(in.gatherProfile.randomFraction, 1.0);
    EXPECT_GE(in.bankConflictRate, 0.0);
    EXPECT_LT(in.bankConflictRate, 1.0);
    EXPECT_GT(in.fullStreamPlan.ritEntries, 0u);
    EXPECT_GT(in.fullStreamPlan.streamedBytes, 0u);
    EXPECT_GT(in.sparsePerFrame.rays, 0u);
    EXPECT_LT(in.sparsePerFrame.rays, in.fullFrame.rays);
    EXPECT_GT(in.warpPointsPerFrame, 0u);
}

TEST(ProbeTest, ScalesToTargetResolution)
{
    auto model = test::tinyModel(GridLayout::MVoxelBlocked, 24);
    ProbeOptions small;
    small.traceRes = 32;
    small.targetRes = 32;
    ProbeOptions big = small;
    big.targetRes = 64;
    Pose pose = test::tinyOrbit(2)[0];
    WorkloadInputs a = probeFullFrame(*model, pose, small);
    WorkloadInputs b = probeFullFrame(*model, pose, big);
    EXPECT_NEAR(static_cast<double>(b.fullFrame.samples),
                4.0 * a.fullFrame.samples,
                0.01 * b.fullFrame.samples);
    // Streamed bytes saturate (not scaled).
    EXPECT_EQ(a.fullStreamPlan.streamedBytes,
              b.fullStreamPlan.streamedBytes);
}

/** The bit pattern of @p v, so doubles compare exactly. */
std::uint64_t
bits(double v)
{
    std::uint64_t b;
    std::memcpy(&b, &v, sizeof b);
    return b;
}

void
expectSameWork(const StageWork &a, const StageWork &b)
{
    EXPECT_EQ(a.rays, b.rays);
    EXPECT_EQ(a.samples, b.samples);
    EXPECT_EQ(a.indexOps, b.indexOps);
    EXPECT_EQ(a.vertexFetches, b.vertexFetches);
    EXPECT_EQ(a.gatherBytes, b.gatherBytes);
    EXPECT_EQ(a.interpOps, b.interpOps);
    EXPECT_EQ(a.mlpMacs, b.mlpMacs);
    EXPECT_EQ(a.compositeOps, b.compositeOps);
}

void
expectSamePlan(const StreamPlan &a, const StreamPlan &b)
{
    EXPECT_EQ(a.streamedBytes, b.streamedBytes);
    EXPECT_EQ(a.randomBytes, b.randomBytes);
    EXPECT_EQ(a.ritEntries, b.ritEntries);
    EXPECT_EQ(a.ritBytes, b.ritBytes);
}

TEST(ProbeTest, FullFrameIsTheStacksMeasurement)
{
    // At traceRes == targetRes nothing is scaled, so the probe's stage
    // work, gather profile, feature-major conflict rate and streaming
    // plan are what the GPU and baseline stacks and measureWorkload
    // give for the same camera's live stream.
    auto model = test::tinyModel();
    ProbeOptions opts;
    opts.traceRes = opts.targetRes = 24;
    const Pose pose = test::tinyOrbit(2)[0];
    const WorkloadInputs in = probeFullFrame(*model, pose, opts);

    const Camera cam = Camera::fromFov(opts.traceRes, opts.traceRes,
                                       model->scene().fovYDeg, pose);
    const TraceWorkloadDescriptor desc = measureWorkload(*model, cam);
    const TraceSourceFn live = liveSource(*model, cam);
    const GatherProfile profile = runGpuStack(live, desc).profile;
    EXPECT_EQ(bits(in.gatherProfile.cacheMissRate),
              bits(profile.cacheMissRate));
    EXPECT_EQ(bits(in.gatherProfile.randomFraction),
              bits(profile.randomFraction));
    EXPECT_EQ(bits(in.bankConflictRate),
              bits(runBaselineStack(live, desc).bankConflictRate));
    EXPECT_EQ(in.vertexBytes, desc.vertexBytes);
    expectSameWork(in.fullFrame, desc.work);
    expectSamePlan(in.fullStreamPlan, desc.plan);
}

void
expectSameInputs(const WorkloadInputs &a, const WorkloadInputs &b)
{
    expectSameWork(a.fullFrame, b.fullFrame);
    EXPECT_EQ(bits(a.gatherProfile.cacheMissRate),
              bits(b.gatherProfile.cacheMissRate));
    EXPECT_EQ(bits(a.gatherProfile.randomFraction),
              bits(b.gatherProfile.randomFraction));
    EXPECT_EQ(bits(a.bankConflictRate), bits(b.bankConflictRate));
    expectSamePlan(a.fullStreamPlan, b.fullStreamPlan);
    EXPECT_EQ(a.vertexBytes, b.vertexBytes);
    expectSameWork(a.sparsePerFrame, b.sparsePerFrame);
    expectSamePlan(a.sparseStreamPlan, b.sparseStreamPlan);
    EXPECT_EQ(a.warpPointsPerFrame, b.warpPointsPerFrame);
    EXPECT_EQ(a.window, b.window);
    EXPECT_EQ(a.framePixels, b.framePixels);
}

TEST(ProbeTest, DependsOnlyOnReferenceAndMidWindowPose)
{
    // The paper-claims bench memoizes probes by (model, window, target
    // pose). That is sound only if a probe reads nothing but the
    // reference pose and the mid-window pose, and orbit pose i does
    // not depend on the orbit's frame count.
    auto model = test::tinyModel(GridLayout::MVoxelBlocked, 24);
    ProbeOptions opts;
    opts.traceRes = 32;
    opts.window = 16;
    WorkloadInputs short18 =
        probeWorkload(*model, test::tinyOrbit(18), opts);
    WorkloadInputs long33 =
        probeWorkload(*model, test::tinyOrbit(33), opts);
    WorkloadInputs again =
        probeWorkload(*model, test::tinyOrbit(18), opts);
    expectSameInputs(short18, long33);
    expectSameInputs(short18, again);
}

} // namespace
} // namespace cicero

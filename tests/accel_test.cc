/**
 * @file
 * Tests for the accelerator timing/energy models: GPU, NPU, GU and the
 * NGPC / NeuRex baselines.
 */

#include <gtest/gtest.h>

#include "accel/baseline_accels.hh"
#include "accel/gathering_unit.hh"
#include "accel/gpu_model.hh"
#include "accel/npu_model.hh"

namespace cicero {
namespace {

StageWork
sampleWork()
{
    StageWork w;
    w.rays = 640000;
    w.samples = w.rays * 100;
    w.indexOps = w.samples * 12;
    w.vertexFetches = w.samples * 8;
    w.gatherBytes = w.vertexFetches * 18;
    w.interpOps = w.samples * 96;
    w.mlpMacs = w.rays * 8 * 21000;
    w.compositeOps = w.samples;
    return w;
}

TEST(GpuModelTest, StagesPositiveAndSum)
{
    GpuModel gpu;
    GpuStageTimes t = gpu.timeNerfFrame(sampleWork(), GatherProfile{});
    EXPECT_GT(t.indexMs, 0.0);
    EXPECT_GT(t.gatherMs, 0.0);
    EXPECT_GT(t.mlpMs, 0.0);
    EXPECT_NEAR(t.totalMs(),
                t.indexMs + t.gatherMs + t.mlpMs + t.compositeMs, 1e-9);
}

TEST(GpuModelTest, WorseMissRateSlowerGather)
{
    GpuModel gpu;
    GatherProfile good{0.05, 0.8};
    GatherProfile bad{0.9, 0.8};
    EXPECT_LT(gpu.timeNerfFrame(sampleWork(), good).gatherMs,
              gpu.timeNerfFrame(sampleWork(), bad).gatherMs);
}

TEST(GpuModelTest, MoreRandomnessSlowerGather)
{
    GpuModel gpu;
    GatherProfile streaming{0.5, 0.05};
    GatherProfile random{0.5, 0.95};
    EXPECT_LT(gpu.timeNerfFrame(sampleWork(), streaming).gatherMs,
              gpu.timeNerfFrame(sampleWork(), random).gatherMs);
}

TEST(GpuModelTest, EnergyProportionalToTime)
{
    GpuModel gpu;
    EXPECT_NEAR(gpu.energyNj(100.0) / gpu.energyNj(50.0), 2.0, 1e-9);
}

TEST(GpuModelTest, WarpCostMatchesPaperScale)
{
    // Sec. III-B: processing one million points takes < 1 ms.
    GpuModel gpu;
    EXPECT_LT(gpu.warpTimeMs(1000000), 1.0);
    EXPECT_GT(gpu.warpTimeMs(1000000), 0.0);
}

TEST(GpuModelTest, RemoteIsFaster)
{
    GpuModel local;
    GpuModel remote(GpuConfig::remote2080Ti());
    GatherProfile p{0.4, 0.8};
    EXPECT_LT(remote.timeNerfFrame(sampleWork(), p).totalMs(),
              local.timeNerfFrame(sampleWork(), p).totalMs());
}

TEST(NpuModelTest, MacThroughput)
{
    NpuModel npu;
    // 24x24 at 1 GHz, 75% utilization = 432 GMAC/s.
    double ms = npu.mlpTimeMs(432000000ull);
    EXPECT_NEAR(ms, 1.0, 1e-6);
}

TEST(NpuModelTest, LayerCyclesTiling)
{
    NpuModel npu;
    // One tile: batch<=24, out<=24: cycles = in + fill.
    EXPECT_EQ(npu.layerCycles(24, 100, 24), 100u + 48);
    // Two output tiles.
    EXPECT_EQ(npu.layerCycles(24, 100, 48), 2u * (100 + 48));
    // Batch tiling too.
    EXPECT_EQ(npu.layerCycles(48, 100, 48), 4u * (100 + 48));
}

TEST(GatheringUnitTest, ComputeBoundVsDramBound)
{
    GatheringUnitModel gu;
    StreamPlan computeHeavy;
    computeHeavy.ritEntries = 10000000;
    computeHeavy.streamedBytes = 1000;
    GuCost c1 = gu.price(computeHeavy, 18);
    EXPECT_GT(c1.computeMs, c1.dramMs);
    EXPECT_NEAR(c1.timeMs, c1.computeMs, 1e-12);

    StreamPlan dramHeavy;
    dramHeavy.ritEntries = 100;
    dramHeavy.streamedBytes = 500ull << 20;
    GuCost c2 = gu.price(dramHeavy, 18);
    EXPECT_GT(c2.dramMs, c2.computeMs);
    EXPECT_NEAR(c2.timeMs, c2.dramMs, 1e-12);
}

TEST(GatheringUnitTest, ChannelStripingSpeedsNarrowVertices)
{
    GatheringUnitModel gu;
    StreamPlan plan;
    plan.ritEntries = 1000000;
    // 4-byte vertices (2 channels) pack more vertices per cycle than
    // 32-byte vertices (16 channels).
    GuCost narrow = gu.price(plan, 4);
    GuCost wide = gu.price(plan, 32);
    EXPECT_LT(narrow.computeMs, wide.computeMs);
}

TEST(GatheringUnitTest, SramEnergyKnee)
{
    // Fig. 23: flat through 64 KB, rising beyond.
    EXPECT_DOUBLE_EQ(GatheringUnitModel::sramEnergyScale(8 << 10), 1.0);
    EXPECT_DOUBLE_EQ(GatheringUnitModel::sramEnergyScale(64 << 10), 1.0);
    double e128 = GatheringUnitModel::sramEnergyScale(128 << 10);
    double e256 = GatheringUnitModel::sramEnergyScale(256 << 10);
    EXPECT_GT(e128, 1.0);
    EXPECT_GT(e256, e128);
}

TEST(GatheringUnitTest, MVoxelEdgeForBuffer)
{
    // 32 KB with 64 B vertices holds an 8^3 MVoxel (paper Sec. V).
    EXPECT_EQ(GatheringUnitModel::mvoxelEdgeForBuffer(32 << 10, 64), 8);
    EXPECT_GE(GatheringUnitModel::mvoxelEdgeForBuffer(256 << 10, 64), 15);
    EXPECT_GE(GatheringUnitModel::mvoxelEdgeForBuffer(1 << 10, 64), 2);
}

TEST(GatheringUnitTest, RandomBytesAddCycles)
{
    GatheringUnitModel gu;
    StreamPlan base;
    base.ritEntries = 1000;
    StreamPlan withRandom = base;
    withRandom.randomBytes = 10 << 20;
    EXPECT_GT(gu.price(withRandom, 18).cycles,
              gu.price(base, 18).cycles);
}

TEST(BaselineAccelTest, NeurexConflictSensitivity)
{
    NeurexModel neurex;
    StageWork w = sampleWork();
    AccelFrameCost lowConflict = neurex.price(w, 0.1);
    AccelFrameCost highConflict = neurex.price(w, 0.8);
    EXPECT_GT(highConflict.gatherMs, lowConflict.gatherMs);
}

TEST(BaselineAccelTest, NgpcConflictFreeFasterGather)
{
    // NGPC's on-chip encodings avoid both conflicts and DRAM; for the
    // same work its gather should beat NeuRex's (Fig. 24 structure).
    NeurexModel neurex;
    NgpcModel ngpc;
    StageWork w = sampleWork();
    EXPECT_LT(ngpc.price(w).gatherMs, neurex.price(w, 0.6).gatherMs);
}

TEST(BaselineAccelTest, NgpcPaysSramEnergyPremium)
{
    NgpcModel ngpc;
    StageWork w = sampleWork();
    AccelFrameCost c = ngpc.price(w);
    EXPECT_GT(c.energyNj, 0.0);
    // 16 MB buffer declared.
    EXPECT_EQ(ngpc.config().bufferBytes, 16ull << 20);
}

TEST(BaselineAccelTest, CostsScaleWithWork)
{
    NeurexModel neurex;
    StageWork w = sampleWork();
    StageWork w2 = w.scaled(2.0);
    EXPECT_NEAR(neurex.price(w2, 0.5).gatherMs,
                2.0 * neurex.price(w, 0.5).gatherMs, 1e-6);
}

} // namespace
} // namespace cicero

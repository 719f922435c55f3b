/**
 * @file
 * Tests for the DRAM model's streaming classification, energy and
 * timing, plus the warp interleaver.
 */

#include <gtest/gtest.h>

#include "memory/dram_model.hh"

namespace cicero {
namespace {

MemAccess
acc(std::uint64_t addr, std::uint32_t bytes = 64, std::uint32_t ray = 0)
{
    return MemAccess{addr, bytes, ray};
}

TEST(DramModelTest, SequentialIsStreaming)
{
    DramModel dram;
    for (int i = 0; i < 64; ++i)
        dram.onAccess(acc(i * 64ull));
    // First access is random (no predecessor); the rest stream.
    EXPECT_EQ(dram.stats().accesses, 64u);
    EXPECT_EQ(dram.stats().randomAccesses, 1u);
    EXPECT_EQ(dram.stats().streamingAccesses, 63u);
}

TEST(DramModelTest, StridedIsRandom)
{
    DramModel dram;
    for (int i = 0; i < 64; ++i)
        dram.onAccess(acc(i * 4096ull));
    EXPECT_EQ(dram.stats().randomAccesses, 64u);
    EXPECT_DOUBLE_EQ(dram.stats().nonStreamingFraction(), 1.0);
}

TEST(DramModelTest, RepeatedBurstIsStreaming)
{
    DramModel dram;
    dram.onAccess(acc(0));
    dram.onAccess(acc(8, 8)); // same 64 B burst
    EXPECT_EQ(dram.stats().streamingAccesses, 1u);
}

TEST(DramModelTest, LargeAccessSplitsIntoStreamingBursts)
{
    DramModel dram;
    dram.onAccess(acc(0, 1024)); // 16 bursts
    EXPECT_EQ(dram.stats().accesses, 16u);
    EXPECT_EQ(dram.stats().randomAccesses, 1u); // only the first
    EXPECT_EQ(dram.stats().bytes, 1024u);
}

TEST(DramModelTest, EnergyRatios)
{
    DramModel dram;
    for (int i = 0; i < 16; ++i)
        dram.onAccess(acc(i * 64ull));
    double streamHeavy = dram.energyNj();
    dram.reset();
    for (int i = 0; i < 16; ++i)
        dram.onAccess(acc(i * 4096ull));
    double randomHeavy = dram.energyNj();
    EXPECT_GT(randomHeavy, 2.0 * streamHeavy);
}

TEST(DramModelTest, TimeGrowsWithRandomness)
{
    DramModel a, b;
    for (int i = 0; i < 1000; ++i)
        a.onAccess(acc(i * 64ull));
    for (int i = 0; i < 1000; ++i)
        b.onAccess(acc((i * 7919ull) % 100000 * 64));
    EXPECT_GT(b.timeMs(), a.timeMs());
}

TEST(DramModelTest, ResetClears)
{
    DramModel dram;
    dram.onAccess(acc(0));
    dram.reset();
    EXPECT_EQ(dram.stats().accesses, 0u);
    EXPECT_EQ(dram.stats().bytes, 0u);
}

TEST(WarpInterleaverTest, InterleavesRayStreams)
{
    // Two rays, each perfectly sequential on its own, become interleaved
    // and thus random at the DRAM.
    TraceRecorder rec;
    WarpInterleaver il(2);
    il.addSink(&rec);
    for (int r = 0; r < 2; ++r) {
        for (int i = 0; i < 4; ++i)
            il.onAccess(acc(r * 1000000ull + i * 64, 64, r));
        il.onRayEnd(r);
    }
    il.onFlush();
    ASSERT_EQ(rec.trace().size(), 8u);
    // Round-robin order: ray0, ray1, ray0, ray1, ...
    EXPECT_EQ(rec.trace()[0].rayId, 0u);
    EXPECT_EQ(rec.trace()[1].rayId, 1u);
    EXPECT_EQ(rec.trace()[2].rayId, 0u);
}

TEST(WarpInterleaverTest, DestroysLocality)
{
    DramModel direct, interleaved;
    WarpInterleaver il(8);
    il.addSink(&interleaved);
    for (int r = 0; r < 8; ++r) {
        for (int i = 0; i < 16; ++i) {
            MemAccess a = acc(r * 1000000ull + i * 64, 64, r);
            direct.onAccess(a);
            il.onAccess(a);
        }
        il.onRayEnd(r);
    }
    il.onFlush();
    EXPECT_LT(direct.stats().nonStreamingFraction(), 0.1);
    EXPECT_GT(interleaved.stats().nonStreamingFraction(), 0.9);
}

TEST(WarpInterleaverTest, FlushDrainsPartialBatch)
{
    TraceRecorder rec;
    WarpInterleaver il(16); // more ways than rays
    il.addSink(&rec);
    for (int i = 0; i < 5; ++i)
        il.onAccess(acc(i * 64, 64, 0));
    il.onFlush();
    EXPECT_EQ(rec.trace().size(), 5u);
}

TEST(TraceTeeTest, FansOut)
{
    TraceRecorder a, b;
    TraceTee tee;
    tee.addSink(&a);
    tee.addSink(&b);
    tee.onAccess(acc(0));
    tee.onAccess(acc(64));
    EXPECT_EQ(a.trace().size(), 2u);
    EXPECT_EQ(b.trace().size(), 2u);
}

} // namespace
} // namespace cicero

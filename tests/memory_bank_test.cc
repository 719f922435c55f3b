/**
 * @file
 * Tests for the SRAM bank-conflict simulator: concrete feature-major
 * conflict cases and the structural conflict-freedom of the
 * channel-major layout (the Sec. IV-B claim).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "memory/sram_bank_model.hh"

namespace cicero {
namespace {

SramBankConfig
config(SramLayout layout, std::uint32_t banks = 4,
       std::uint32_t rays = 4, std::uint32_t ports = 1)
{
    SramBankConfig cfg;
    cfg.numBanks = banks;
    cfg.concurrentRays = rays;
    cfg.portsPerBank = ports;
    cfg.featureBytes = 32;
    cfg.layout = layout;
    return cfg;
}

void
feedRay(BankConflictSim &sim, std::uint32_t ray,
        const std::vector<std::uint64_t> &vectorIds)
{
    for (std::uint64_t v : vectorIds)
        sim.onAccess(MemAccess{v * 32, 32, ray});
    sim.onRayEnd(ray);
}

TEST(BankConflictTest, DisjointBanksNoConflict)
{
    BankConflictSim sim(config(SramLayout::FeatureMajor));
    // 4 rays each accessing a vector in a different bank.
    feedRay(sim, 0, {0});
    feedRay(sim, 1, {1});
    feedRay(sim, 2, {2});
    feedRay(sim, 3, {3});
    sim.onFlush();
    EXPECT_EQ(sim.stats().stalls, 0u);
    EXPECT_EQ(sim.stats().fetches, 4u);
    EXPECT_EQ(sim.stats().cycles, 1u);
}

TEST(BankConflictTest, SameBankSerializes)
{
    BankConflictSim sim(config(SramLayout::FeatureMajor));
    // All 4 rays want vectors in bank 0 (ids 0, 4, 8, 12).
    feedRay(sim, 0, {0});
    feedRay(sim, 1, {4});
    feedRay(sim, 2, {8});
    feedRay(sim, 3, {12});
    sim.onFlush();
    // Cycle 1: one grant, three stalls; cycle 2: one grant, two stalls...
    EXPECT_EQ(sim.stats().fetches, 4u);
    EXPECT_EQ(sim.stats().stalls, 6u);
    EXPECT_EQ(sim.stats().cycles, 4u);
    EXPECT_NEAR(sim.stats().conflictRate(), 0.6, 1e-9);
}

TEST(BankConflictTest, TwoPortsHalveSerialization)
{
    BankConflictSim sim(config(SramLayout::FeatureMajor, 4, 4, 2));
    feedRay(sim, 0, {0});
    feedRay(sim, 1, {4});
    feedRay(sim, 2, {8});
    feedRay(sim, 3, {12});
    sim.onFlush();
    EXPECT_EQ(sim.stats().cycles, 2u);
    EXPECT_EQ(sim.stats().stalls, 2u);
}

TEST(BankConflictTest, BankOfVectorMapping)
{
    BankConflictSim sim(config(SramLayout::FeatureMajor, 8));
    EXPECT_EQ(sim.bankOfVector(0), 0u);
    EXPECT_EQ(sim.bankOfVector(32), 1u);
    EXPECT_EQ(sim.bankOfVector(8 * 32), 0u);
}

TEST(BankConflictTest, ChannelMajorNeverConflicts)
{
    BankConflictSim sim(config(SramLayout::ChannelMajor));
    // Same pathological pattern that serialized feature-major.
    feedRay(sim, 0, {0});
    feedRay(sim, 1, {4});
    feedRay(sim, 2, {8});
    feedRay(sim, 3, {12});
    sim.onFlush();
    EXPECT_EQ(sim.stats().stalls, 0u);
    EXPECT_EQ(sim.stats().fetches, 4u);
}

/**
 * Property (the paper's central Sec. IV-B claim): for random access
 * patterns, feature-major conflicts are common while channel-major
 * conflicts are structurally zero.
 */
class LayoutProperty : public ::testing::TestWithParam<int>
{
};

TEST_P(LayoutProperty, ChannelMajorConflictFree)
{
    Rng rng(GetParam() * 31 + 7);
    SramBankConfig fm = config(SramLayout::FeatureMajor, 16, 16);
    SramBankConfig cm = config(SramLayout::ChannelMajor, 16, 16);
    BankConflictSim simFm(fm), simCm(cm);

    for (std::uint32_t ray = 0; ray < 64; ++ray) {
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < 32; ++i)
            ids.push_back(rng.uniformInt(4096));
        feedRay(simFm, ray, ids);
        feedRay(simCm, ray, ids);
    }
    simFm.onFlush();
    simCm.onFlush();

    EXPECT_GT(simFm.stats().conflictRate(), 0.1);
    EXPECT_EQ(simCm.stats().stalls, 0u);
    EXPECT_EQ(simCm.stats().fetches, simFm.stats().fetches);
    // Channel-major completion time is deterministic: vectors divided
    // by the per-cycle vector rate (B*M/channels), never inflated by
    // arbitration.
    std::uint32_t channels = cm.featureBytes / cm.channelBytes;
    std::uint64_t rate =
        std::max<std::uint64_t>(1, cm.numBanks * cm.portsPerBank /
                                       channels);
    std::uint64_t vectors = simCm.stats().fetches;
    EXPECT_EQ(simCm.stats().cycles, (vectors + rate - 1) / rate);
}

INSTANTIATE_TEST_SUITE_P(Sweep, LayoutProperty, ::testing::Range(1, 12));

TEST(BankConflictTest, MoreBanksFewerConflicts)
{
    Rng rng(11);
    std::vector<std::vector<std::uint64_t>> rays;
    for (int r = 0; r < 64; ++r) {
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < 16; ++i)
            ids.push_back(rng.uniformInt(4096));
        rays.push_back(ids);
    }
    auto rate = [&](std::uint32_t banks) {
        BankConflictSim sim(
            config(SramLayout::FeatureMajor, banks, 16));
        for (std::uint32_t r = 0; r < rays.size(); ++r)
            feedRay(sim, r, rays[r]);
        sim.onFlush();
        return sim.stats().conflictRate();
    };
    // The paper: increasing banks reduces conflicts (at crossbar cost).
    EXPECT_GT(rate(8), rate(64));
}

TEST(BankConflictTest, MoreConcurrentRaysMoreConflicts)
{
    Rng rng(13);
    std::vector<std::vector<std::uint64_t>> rays;
    for (int r = 0; r < 128; ++r) {
        std::vector<std::uint64_t> ids;
        for (int i = 0; i < 16; ++i)
            ids.push_back(rng.uniformInt(4096));
        rays.push_back(ids);
    }
    auto rate = [&](std::uint32_t concurrent) {
        SramBankConfig cfg =
            config(SramLayout::FeatureMajor, 16, concurrent);
        BankConflictSim sim(cfg);
        for (std::uint32_t r = 0; r < rays.size(); ++r)
            feedRay(sim, r, rays[r]);
        sim.onFlush();
        return sim.stats().conflictRate();
    };
    // Fig. 6 discussion: 64 concurrent rays conflict more than 4.
    EXPECT_GT(rate(64), rate(4));
}

void
expectStats(const BankConflictSim &sim, std::uint64_t requests,
            std::uint64_t stalls, std::uint64_t cycles,
            std::uint64_t fetches)
{
    EXPECT_EQ(sim.stats().requests, requests);
    EXPECT_EQ(sim.stats().stalls, stalls);
    EXPECT_EQ(sim.stats().cycles, cycles);
    EXPECT_EQ(sim.stats().fetches, fetches);
}

TEST(BankConflictTest, ZeroConcurrentRaysActsAsOne)
{
    auto run = [](std::uint32_t concurrent) {
        BankConflictSim sim(
            config(SramLayout::FeatureMajor, 4, concurrent));
        feedRay(sim, 0, {0, 4, 1});
        feedRay(sim, 1, {8});
        feedRay(sim, 2, {2, 6});
        sim.onFlush();
        return sim.stats();
    };
    BankConflictStats zero = run(0), one = run(1);
    EXPECT_EQ(zero.requests, one.requests);
    EXPECT_EQ(zero.stalls, one.stalls);
    EXPECT_EQ(zero.cycles, one.cycles);
    EXPECT_EQ(zero.fetches, one.fetches);
    // One ray at a time never contends: one cycle per fetch.
    EXPECT_EQ(one.stalls, 0u);
    EXPECT_EQ(one.cycles, 6u);
}

TEST(BankConflictTest, BatchesReuseSlotsWithoutStaleAccesses)
{
    // Two slots, four banks (vector v sits in bank v % 4). Each slot's
    // later rays are shorter than the ray it held before, so a slot
    // that kept stale accesses would issue extra requests.
    BankConflictSim sim(config(SramLayout::FeatureMajor, 4, 2));

    // Batch 1: slot 0 fetches three bank-0 vectors, slot 1 one more;
    // slot 1 stalls behind slot 0 for three cycles.
    feedRay(sim, 0, {0, 4, 8});
    feedRay(sim, 1, {12});
    expectStats(sim, 7, 3, 4, 4);

    // Batch 2: banks 1 and 2, no contention.
    feedRay(sim, 2, {1});
    feedRay(sim, 3, {2, 6});
    expectStats(sim, 7 + 3, 3, 4 + 2, 4 + 3);

    // Batch 3: both slots want bank 1.
    feedRay(sim, 4, {5});
    feedRay(sim, 5, {9});
    expectStats(sim, 10 + 3, 3 + 1, 6 + 2, 7 + 2);

    // The flush hands over the last, one-ray batch.
    feedRay(sim, 6, {0});
    expectStats(sim, 13, 4, 8, 9);
    sim.onFlush();
    expectStats(sim, 13 + 1, 4, 8 + 1, 9 + 1);
}

TEST(BankConflictTest, ImplicitRayBoundaryOnIdChange)
{
    // Ray 1's access arriving ends ray 0 without an onRayEnd: the two
    // vectors are two rays contending for bank 0, not one ray's
    // back-to-back fetches.
    BankConflictSim sim(config(SramLayout::FeatureMajor, 4, 2));
    sim.onAccess(MemAccess{0, 32, 0});
    sim.onAccess(MemAccess{4 * 32, 32, 1});
    expectStats(sim, 0, 0, 0, 0); // only one ray has ended
    sim.onRayEnd(1);
    expectStats(sim, 3, 1, 2, 2);
}

TEST(BankConflictTest, StrayRayEndIsDropped)
{
    // onRayEnd with no open accesses ends nothing: the batch still
    // waits for two rays that fetched something.
    BankConflictSim sim(config(SramLayout::FeatureMajor, 4, 2));
    sim.onRayEnd(7);
    feedRay(sim, 0, {0});
    sim.onRayEnd(0);
    expectStats(sim, 0, 0, 0, 0);
    feedRay(sim, 1, {4});
    expectStats(sim, 3, 1, 2, 2);
}

TEST(BankConflictTest, MidRayFlushEndsOpenRay)
{
    BankConflictSim sim(config(SramLayout::FeatureMajor, 4, 4));
    feedRay(sim, 0, {0});
    sim.onAccess(MemAccess{4 * 32, 32, 1}); // ray 1 left open...
    sim.onFlush();                          // ...and ended by the flush
    expectStats(sim, 3, 1, 2, 2);
    sim.onFlush(); // nothing left to hand over
    expectStats(sim, 3, 1, 2, 2);
}

} // namespace
} // namespace cicero

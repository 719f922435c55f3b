/**
 * @file
 * Tests for the paper's published energy ratios.
 */

#include <gtest/gtest.h>

#include "memory/energy_model.hh"

namespace cicero {
namespace {

TEST(EnergyConstantsTest, PaperRatios)
{
    EnergyConstants c;
    // Sec. V: random:streaming DRAM = 3:1, random DRAM:SRAM = 25:1.
    EXPECT_NEAR(c.dramRandomPjPerByte / c.dramStreamPjPerByte, 3.0,
                0.01);
    EXPECT_NEAR(c.dramRandomPjPerByte / c.sramPjPerByte, 25.0, 0.01);
    EXPECT_DOUBLE_EQ(c.wirelessNjPerByte, 100.0);
    EXPECT_DOUBLE_EQ(c.wirelessMBps, 10.0);
}

} // namespace
} // namespace cicero

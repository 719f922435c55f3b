/**
 * @file
 * Unit tests for summaries, tables and the RNG.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "common/stats.hh"

namespace cicero {
namespace {

TEST(SummaryTest, Moments)
{
    Summary s;
    for (double v : {1.0, 2.0, 3.0, 4.0})
        s.add(v);
    EXPECT_EQ(s.count(), 4u);
    EXPECT_DOUBLE_EQ(s.mean(), 2.5);
    EXPECT_DOUBLE_EQ(s.min(), 1.0);
    EXPECT_DOUBLE_EQ(s.max(), 4.0);
    EXPECT_NEAR(s.stddev(), std::sqrt(1.25), 1e-9);
    EXPECT_DOUBLE_EQ(s.sum(), 10.0);
}

TEST(SummaryTest, EmptyIsSafe)
{
    Summary s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_DOUBLE_EQ(s.mean(), 0.0);
    EXPECT_DOUBLE_EQ(s.stddev(), 0.0);
}

TEST(TableTest, AlignsColumns)
{
    Table t({"name", "value"});
    t.row().cell("alpha").cell(1.5, 1);
    t.row().cell("b").cell(std::uint64_t{42});
    std::string s = t.str();
    EXPECT_NE(s.find("alpha"), std::string::npos);
    EXPECT_NE(s.find("1.5"), std::string::npos);
    EXPECT_NE(s.find("42"), std::string::npos);
    // Header separator present.
    EXPECT_NE(s.find("----"), std::string::npos);
}

TEST(FormatTest, Doubles)
{
    EXPECT_EQ(formatDouble(3.14159, 2), "3.14");
    EXPECT_EQ(formatDouble(2.0, 0), "2");
}

TEST(FormatTest, Bytes)
{
    EXPECT_EQ(formatBytes(512.0), "512.0 B");
    EXPECT_EQ(formatBytes(2048.0), "2.0 KB");
    EXPECT_EQ(formatBytes(3.5 * 1024 * 1024), "3.5 MB");
}

TEST(RngTest, Deterministic)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(RngTest, DifferentSeedsDiffer)
{
    Rng a(1), b(2);
    int same = 0;
    for (int i = 0; i < 64; ++i)
        same += a.next() == b.next();
    EXPECT_LT(same, 4);
}

TEST(RngTest, UniformInRange)
{
    Rng rng(7);
    for (int i = 0; i < 1000; ++i) {
        float u = rng.uniform();
        EXPECT_GE(u, 0.0f);
        EXPECT_LT(u, 1.0f);
        float r = rng.uniform(-2.0f, 3.0f);
        EXPECT_GE(r, -2.0f);
        EXPECT_LT(r, 3.0f);
    }
}

TEST(RngTest, UniformMeanApproximatelyHalf)
{
    Rng rng(11);
    double acc = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i)
        acc += rng.uniform();
    EXPECT_NEAR(acc / n, 0.5, 0.02);
}

TEST(RngTest, DirectionIsUnit)
{
    Rng rng(5);
    for (int i = 0; i < 100; ++i)
        EXPECT_NEAR(rng.uniformDirection().norm(), 1.0f, 1e-5f);
}

TEST(RngTest, NormalMoments)
{
    Rng rng(17);
    double sum = 0.0, sumSq = 0.0;
    const int n = 20000;
    for (int i = 0; i < n; ++i) {
        float v = rng.normal();
        sum += v;
        sumSq += v * v;
    }
    EXPECT_NEAR(sum / n, 0.0, 0.05);
    EXPECT_NEAR(sumSq / n, 1.0, 0.08);
}

} // namespace
} // namespace cicero

/**
 * @file
 * Unit tests for the common substrate: RNG, statistics, tables.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <set>

#include "common/rng.hh"
#include "common/stats.hh"
#include "common/table.hh"

namespace dcmbqc
{
namespace
{

TEST(Rng, DeterministicForSeed)
{
    Rng a(42);
    Rng b(42);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Rng, DifferentSeedsDiffer)
{
    Rng a(1);
    Rng b(2);
    int equal = 0;
    for (int i = 0; i < 64; ++i)
        equal += a.next() == b.next();
    EXPECT_LT(equal, 4);
}

TEST(Rng, UniformInUnitInterval)
{
    Rng rng(7);
    double sum = 0.0;
    for (int i = 0; i < 20000; ++i) {
        const double u = rng.uniform();
        ASSERT_GE(u, 0.0);
        ASSERT_LT(u, 1.0);
        sum += u;
    }
    EXPECT_NEAR(sum / 20000.0, 0.5, 0.02);
}

TEST(Rng, UniformIntBounds)
{
    Rng rng(9);
    std::set<std::uint64_t> seen;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformInt(10);
        ASSERT_LT(v, 10u);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 10u); // every value hit
}

/** uniformInt as first written: the threshold computed up front. */
std::uint64_t
referenceUniformInt(Rng &rng, std::uint64_t bound)
{
    if (bound == 0)
        return 0;
    const std::uint64_t threshold = (0 - bound) % bound;
    for (;;) {
        std::uint64_t r = rng.next();
        if (r >= threshold)
            return r % bound;
    }
}

TEST(Rng, UniformIntMatchesReferenceLoop)
{
    // 2^63 + 1 rejects about half its draws, so the slow path runs.
    const std::uint64_t bounds[] = {
        1, 2, 3, 7, 1000, (1ull << 32) - 1, (1ull << 32) + 1, 1ull << 63,
        (1ull << 63) + 1, 3ull << 62, ~0ull};
    for (std::uint64_t seed = 1; seed <= 64; ++seed) {
        for (const std::uint64_t bound : bounds) {
            Rng fast(seed);
            Rng reference(seed);
            for (int i = 0; i < 32; ++i)
                ASSERT_EQ(fast.uniformInt(bound),
                          referenceUniformInt(reference, bound))
                    << "seed " << seed << ", bound " << bound
                    << ", draw " << i;
            // Both consumed the same number of raw draws.
            ASSERT_EQ(fast.next(), reference.next());
        }
    }
}

TEST(Rng, UniformRangeInclusive)
{
    Rng rng(11);
    bool saw_lo = false, saw_hi = false;
    for (int i = 0; i < 2000; ++i) {
        const auto v = rng.uniformRange(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        saw_lo |= v == -3;
        saw_hi |= v == 3;
    }
    EXPECT_TRUE(saw_lo);
    EXPECT_TRUE(saw_hi);
}

TEST(Rng, BernoulliRate)
{
    Rng rng(13);
    int hits = 0;
    for (int i = 0; i < 20000; ++i)
        hits += rng.bernoulli(0.3);
    EXPECT_NEAR(hits / 20000.0, 0.3, 0.02);
}

TEST(Rng, NormalMoments)
{
    Rng rng(15);
    RunningStats stats;
    for (int i = 0; i < 20000; ++i)
        stats.add(rng.normal());
    EXPECT_NEAR(stats.mean(), 0.0, 0.05);
    EXPECT_NEAR(stats.stddev(), 1.0, 0.05);
}

TEST(Rng, ShufflePermutes)
{
    Rng rng(17);
    std::vector<int> v{0, 1, 2, 3, 4, 5, 6, 7};
    auto w = v;
    rng.shuffle(w);
    std::multiset<int> a(v.begin(), v.end());
    std::multiset<int> b(w.begin(), w.end());
    EXPECT_EQ(a, b);
}

TEST(RunningStats, BasicMoments)
{
    RunningStats s;
    for (double x : {2.0, 4.0, 4.0, 4.0, 5.0, 5.0, 7.0, 9.0})
        s.add(x);
    EXPECT_EQ(s.count(), 8u);
    EXPECT_DOUBLE_EQ(s.mean(), 5.0);
    EXPECT_NEAR(s.variance(), 32.0 / 7.0, 1e-12);
    EXPECT_DOUBLE_EQ(s.min(), 2.0);
    EXPECT_DOUBLE_EQ(s.max(), 9.0);
    EXPECT_DOUBLE_EQ(s.sum(), 40.0);
}

TEST(RunningStats, MergeMatchesCombined)
{
    Rng rng(19);
    RunningStats all, a, b;
    for (int i = 0; i < 500; ++i) {
        const double x = rng.normal() * 3 + 1;
        all.add(x);
        (i % 2 ? a : b).add(x);
    }
    a.merge(b);
    EXPECT_EQ(a.count(), all.count());
    EXPECT_NEAR(a.mean(), all.mean(), 1e-9);
    EXPECT_NEAR(a.variance(), all.variance(), 1e-9);
    EXPECT_NEAR(a.min(), all.min(), 1e-12);
    EXPECT_NEAR(a.max(), all.max(), 1e-12);
}

TEST(RunningStats, EmptyIsZero)
{
    RunningStats s;
    EXPECT_EQ(s.count(), 0u);
    EXPECT_EQ(s.mean(), 0.0);
    EXPECT_EQ(s.variance(), 0.0);
}

TEST(Percentile, InterpolatesLinearly)
{
    std::vector<double> v{1, 2, 3, 4, 5};
    EXPECT_DOUBLE_EQ(percentile(v, 0), 1.0);
    EXPECT_DOUBLE_EQ(percentile(v, 50), 3.0);
    EXPECT_DOUBLE_EQ(percentile(v, 100), 5.0);
    EXPECT_DOUBLE_EQ(percentile(v, 25), 2.0);
}

TEST(Percentile, EmptyIsZero)
{
    EXPECT_DOUBLE_EQ(percentile({}, 50), 0.0);
}

TEST(GeometricMean, Basics)
{
    EXPECT_NEAR(geometricMean({2.0, 8.0}), 4.0, 1e-12);
    EXPECT_DOUBLE_EQ(geometricMean({}), 0.0);
    EXPECT_DOUBLE_EQ(geometricMean({1.0, -1.0}), 0.0);
}

TEST(TextTable, RendersAlignedColumns)
{
    TextTable t({"name", "value"});
    t.row().cell("alpha").cell(42);
    t.row().cell("b").cell(3.14159, 2);
    const auto out = t.render();
    EXPECT_NE(out.find("| alpha | 42    |"), std::string::npos);
    EXPECT_NE(out.find("| b     | 3.14  |"), std::string::npos);
    EXPECT_EQ(t.numRows(), 2u);
}

TEST(TextTable, TitleRender)
{
    TextTable t({"x"});
    t.row().cell(1);
    EXPECT_EQ(t.render("T").rfind("== T ==\n", 0), 0u);
}

} // namespace
} // namespace dcmbqc

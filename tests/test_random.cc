/** @file Unit tests for the deterministic RNG. */

#include <gtest/gtest.h>

#include <limits>

#include "common/random.hh"

namespace qmh {
namespace {

TEST(Random, SameSeedSameStream)
{
    Random a(42), b(42);
    for (int i = 0; i < 1000; ++i)
        EXPECT_EQ(a.next(), b.next());
}

TEST(Random, DifferentSeedsDiverge)
{
    Random a(1), b(2);
    int same = 0;
    for (int i = 0; i < 100; ++i)
        same += a.next() == b.next() ? 1 : 0;
    EXPECT_LT(same, 3);
}

TEST(Random, UniformInUnitInterval)
{
    Random rng(7);
    for (int i = 0; i < 10000; ++i) {
        const double v = rng.uniform();
        ASSERT_GE(v, 0.0);
        ASSERT_LT(v, 1.0);
    }
}

TEST(Random, UniformMeanIsHalf)
{
    Random rng(11);
    double sum = 0.0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        sum += rng.uniform();
    EXPECT_NEAR(sum / trials, 0.5, 0.01);
}

TEST(Random, UniformIntRespectsBound)
{
    Random rng(3);
    for (std::uint64_t bound : {1ULL, 2ULL, 7ULL, 1000ULL}) {
        for (int i = 0; i < 1000; ++i)
            ASSERT_LT(rng.uniformInt(bound), bound);
    }
}

TEST(Random, UniformIntCoversRange)
{
    Random rng(5);
    bool seen[10] = {};
    for (int i = 0; i < 1000; ++i)
        seen[rng.uniformInt(10)] = true;
    for (bool s : seen)
        EXPECT_TRUE(s);
}

TEST(Random, UniformRangeInclusive)
{
    Random rng(9);
    bool lo_seen = false, hi_seen = false;
    for (int i = 0; i < 5000; ++i) {
        const auto v = rng.uniformRange(-3, 3);
        ASSERT_GE(v, -3);
        ASSERT_LE(v, 3);
        lo_seen |= v == -3;
        hi_seen |= v == 3;
    }
    EXPECT_TRUE(lo_seen);
    EXPECT_TRUE(hi_seen);
}

// Regression: the span of [lo, hi] used to be computed as hi - lo in
// signed arithmetic, which is UB once the width exceeds INT64_MAX, and
// the full 64-bit range wrapped the span to 0 and panicked inside
// uniformInt.
TEST(Random, UniformRangeHugeSpan)
{
    constexpr auto int64_min = std::numeric_limits<std::int64_t>::min();
    constexpr auto int64_max = std::numeric_limits<std::int64_t>::max();
    Random rng(29);
    for (int i = 0; i < 1000; ++i) {
        const auto a = rng.uniformRange(int64_min, 0);
        ASSERT_GE(a, int64_min);
        ASSERT_LE(a, 0);
        const auto b = rng.uniformRange(-1, int64_max);
        ASSERT_GE(b, -1);
        const auto c = rng.uniformRange(int64_min + 1, int64_max - 1);
        ASSERT_GT(c, int64_min);
        ASSERT_LT(c, int64_max);
    }
}

TEST(Random, UniformRangeFullRange)
{
    constexpr auto int64_min = std::numeric_limits<std::int64_t>::min();
    constexpr auto int64_max = std::numeric_limits<std::int64_t>::max();
    Random rng(31);
    bool negative_seen = false, positive_seen = false;
    for (int i = 0; i < 1000; ++i) {
        const auto v = rng.uniformRange(int64_min, int64_max);
        negative_seen |= v < 0;
        positive_seen |= v > 0;
    }
    // Every 64-bit pattern is valid, so both halves must appear.
    EXPECT_TRUE(negative_seen);
    EXPECT_TRUE(positive_seen);
    // The full-range path consumes exactly one raw draw per sample.
    Random a(37), b(37);
    const auto sampled = a.uniformRange(int64_min, int64_max);
    EXPECT_EQ(sampled, static_cast<std::int64_t>(b.next()));
}

TEST(Random, UniformRangeDegenerate)
{
    Random rng(41);
    EXPECT_EQ(rng.uniformRange(5, 5), 5);
    constexpr auto int64_min = std::numeric_limits<std::int64_t>::min();
    EXPECT_EQ(rng.uniformRange(int64_min, int64_min), int64_min);
}

TEST(Random, BernoulliEdgeCases)
{
    Random rng(1);
    for (int i = 0; i < 100; ++i) {
        EXPECT_FALSE(rng.bernoulli(0.0));
        EXPECT_TRUE(rng.bernoulli(1.0));
    }
}

TEST(Random, BernoulliFrequency)
{
    Random rng(13);
    int hits = 0;
    const int trials = 100000;
    for (int i = 0; i < trials; ++i)
        hits += rng.bernoulli(0.3) ? 1 : 0;
    EXPECT_NEAR(static_cast<double>(hits) / trials, 0.3, 0.01);
}

} // namespace
} // namespace qmh

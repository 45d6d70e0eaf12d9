/** @file Tests for logging, strong ids and unit conversions. */

#include <gtest/gtest.h>

#include <stdexcept>

#include "common/logging.hh"
#include "common/strong_id.hh"
#include "common/units.hh"

namespace qmh {
namespace {

using TestId = StrongId<struct TestTag>;

TEST(StrongId, DefaultIsInvalid)
{
    TestId id;
    EXPECT_FALSE(id.isValid());
    EXPECT_EQ(id, TestId::invalid());
}

TEST(StrongId, ValueRoundTrip)
{
    TestId id(17);
    EXPECT_TRUE(id.isValid());
    EXPECT_EQ(id.value(), 17u);
}

TEST(StrongId, Ordering)
{
    EXPECT_LT(TestId(1), TestId(2));
    EXPECT_EQ(TestId(3), TestId(3));
    EXPECT_NE(TestId(3), TestId(4));
}

TEST(StrongId, Hashable)
{
    std::hash<TestId> h;
    EXPECT_EQ(h(TestId(5)), h(TestId(5)));
    EXPECT_NE(h(TestId(5)), h(TestId(6)));
}

TEST(Units, SecondsTicksRoundTrip)
{
    const Tick t = units::secondsToTicks(1.5);
    EXPECT_EQ(t, 1500000000ull);
    EXPECT_DOUBLE_EQ(units::ticksToSeconds(t), 1.5);
}

TEST(Units, MicrosecondConversion)
{
    EXPECT_DOUBLE_EQ(units::usToSeconds(10.0), 1e-5);
}

TEST(Units, AreaConversion)
{
    EXPECT_DOUBLE_EQ(units::um2ToMm2(1e6), 1.0);
}

TEST(Units, HoursConversion)
{
    EXPECT_DOUBLE_EQ(units::secondsToHours(7200.0), 2.0);
}

TEST(Units, BusyFractionGuardsZeroSpanOrServers)
{
    // 30 busy ticks on 2 servers over 20 ticks: 30 / 40.
    EXPECT_DOUBLE_EQ(units::busyFraction(30, 20, 2), 0.75);
    // A resource that never ran (or has no servers) reports 0, not a
    // division by zero.
    EXPECT_DOUBLE_EQ(units::busyFraction(0, 0, 4), 0.0);
    EXPECT_DOUBLE_EQ(units::busyFraction(0, 10, 0), 0.0);
}

TEST(LoggingDeath, PanicAborts)
{
    EXPECT_DEATH(qmh_panic("boom ", 42), "boom 42");
}

TEST(LoggingDeath, FatalExits)
{
    // qmh_fatal no longer ends the process: it throws the message.
    try {
        qmh_fatal("bad config ", 7);
        ADD_FAILURE() << "qmh_fatal returned";
    } catch (const std::invalid_argument &error) {
        EXPECT_STREQ(error.what(), "bad config 7");
    }
}

} // namespace
} // namespace qmh

/** @file Application model tests (Fig. 8). */

#include <gtest/gtest.h>

#include "common/units.hh"
#include "cqla/apps.hh"

namespace qmh {
namespace cqla {
namespace {

const iontrap::Params params = iontrap::Params::future();

TEST(ModExp, SequentialAddersScaleNLogN)
{
    EXPECT_NEAR(ModExpModel::sequentialAdders(1024),
                2.8 * 1024 * 10, 1.0);
    EXPECT_GT(ModExpModel::sequentialAdders(2048) /
                  ModExpModel::sequentialAdders(1024),
              2.0);
}

TEST(ModExp, Fig8aComputationDominatesCommunication)
{
    ModExpModel model(ecc::Code::baconShor(), params);
    for (int n : {32, 128, 512, 1024}) {
        const auto blocks =
            PerformanceModel::paperBlockCounts(n).second;
        const auto t = model.totalTimes(n, blocks);
        EXPECT_GT(t.computation_s, t.communication_s)
            << "modexp is computation bound at n=" << n;
    }
}

TEST(ModExp, Fig8aHoursScaleMatchesPaper)
{
    // Paper Fig. 8a: ~500 hours of computation at 1024 bits.
    ModExpModel model(ecc::Code::baconShor(), params);
    const auto t = model.totalTimes(1024, 121);
    const double hours = units::secondsToHours(t.computation_s);
    EXPECT_GT(hours, 300.0);
    EXPECT_LT(hours, 700.0);
}

TEST(ModExp, TrafficGrowsWithWidth)
{
    ModExpModel model(ecc::Code::baconShor(), params);
    EXPECT_GT(model.adderTraffic(512), model.adderTraffic(256));
}

TEST(Qft, Fig8bCommunicationTracksComputation)
{
    QftModel model(ecc::Code::baconShor(), params);
    for (int n : {100, 400, 1000}) {
        const auto t = model.totalTimes(n);
        EXPECT_LT(t.communication_s, t.computation_s);
        EXPECT_GT(t.communication_s, 0.7 * t.computation_s)
            << "QFT communication closely tracks computation";
    }
}

TEST(Qft, Fig8bSecondsScaleMatchesPaper)
{
    // Paper Fig. 8b: ~1e5 seconds at n = 1000 (Bacon-Shor).
    QftModel model(ecc::Code::baconShor(), params);
    const auto t = model.totalTimes(1000);
    EXPECT_GT(t.computation_s, 6e4);
    EXPECT_LT(t.computation_s, 1.5e5);
}

TEST(Qft, QuadraticGrowth)
{
    QftModel model(ecc::Code::baconShor(), params);
    const auto t500 = model.totalTimes(500);
    const auto t1000 = model.totalTimes(1000);
    EXPECT_NEAR(t1000.computation_s / t500.computation_s, 4.0, 0.1);
}

} // namespace
} // namespace cqla
} // namespace qmh

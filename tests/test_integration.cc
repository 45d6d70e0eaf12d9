/**
 * @file
 * Cross-module integration tests: generator -> text round trip ->
 * DAG -> scheduler -> cache -> models, end to end.
 */

#include <gtest/gtest.h>

#include "cache/cache_sim.hh"
#include "circuit/reversible.hh"
#include "circuit/text_format.hh"
#include "cqla/hierarchy.hh"
#include "gen/draper.hh"
#include "gen/qft.hh"
#include "sched/scheduler.hh"

namespace qmh {
namespace {

TEST(Integration, AdderSurvivesTextRoundTripAndStillAdds)
{
    gen::AdderLayout layout;
    const auto original = gen::draperAdder(10, true, &layout);
    const auto parsed = circuit::parseText(circuit::writeText(original));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    ASSERT_EQ(parsed.program.size(), original.size());

    circuit::ReversibleState st(layout.total_qubits);
    st.loadInteger(700, layout.a_offset, 10);
    st.loadInteger(450, layout.b_offset, 10);
    ASSERT_TRUE(st.run(parsed.program));
    EXPECT_EQ(st.readInteger(layout.b_offset, 10),
              (700u + 450u) & 1023u);
    EXPECT_TRUE(
        st.get(circuit::QubitId(layout.carryOutQubit())));
}

TEST(Integration, ScheduleAndCacheAgreeOnInstructionCount)
{
    const auto prog = gen::draperAdder(
        32, true, nullptr, gen::UncomputeMode::CarriesLeftDirty);
    sched::LatencyModel lat;
    const auto schedule = sched::listSchedule(prog, lat, 9);
    const auto cache_run = cache::simulateCache(
        prog, 64, cache::FetchPolicy::OptimizedLookahead);
    EXPECT_EQ(schedule.start.size(), prog.size());
    EXPECT_EQ(cache_run.issue_order.size(), prog.size());
}

TEST(Integration, PaperHeadlineClaims)
{
    // The abstract's two headline numbers, end to end: ~13x area and
    // ~8x performance from specialization plus the memory hierarchy.
    const auto params = iontrap::Params::future();
    cqla::HierarchyModel hier(params);
    const auto row =
        hier.row(ecc::Code::baconShor(), 1024, 10, 100);
    EXPECT_GT(row.area_reduced, 11.0);
    EXPECT_GT(row.adder_speedup, 7.0);
    EXPECT_GT(row.gain_product, 80.0);
}

TEST(Integration, QftTextRoundTrip)
{
    const auto prog = gen::qft(16, true);
    const auto parsed = circuit::parseText(circuit::writeText(prog));
    ASSERT_TRUE(parsed.ok) << parsed.error;
    EXPECT_EQ(parsed.program.gateCount(circuit::GateKind::Cphase),
              120u);  // 16 * 15 / 2
}

TEST(Integration, RoundScheduleDeterministic)
{
    const auto prog = gen::draperAdder(64);
    sched::LatencyModel lat;
    const auto a = sched::roundSchedule(prog, lat, 16);
    const auto b = sched::roundSchedule(prog, lat, 16);
    EXPECT_EQ(a.makespan, b.makespan);
    EXPECT_EQ(a.start, b.start);
}

} // namespace
} // namespace qmh

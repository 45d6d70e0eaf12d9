/**
 * @file
 * Cross-cutting property tests: schedule validity on random circuits,
 * metric monotonicity, and structural invariants that must hold for
 * every workload, not just the paper's.
 */

#include <gtest/gtest.h>

#include "circuit/dag.hh"
#include "common/random.hh"
#include "ecc/threshold.hh"
#include "gen/draper.hh"
#include "gen/random_circuit.hh"
#include "net/transfer.hh"
#include "sched/scheduler.hh"

namespace qmh {
namespace {

const iontrap::Params params = iontrap::Params::future();

/**
 * A schedule is valid iff (a) every instruction starts after all its
 * predecessors finish and (b) no block runs two instructions at once.
 */
::testing::AssertionResult
scheduleIsValid(const circuit::Program &prog,
                const circuit::DependencyGraph &dag,
                const sched::ScheduleResult &s,
                const sched::LatencyModel &lat)
{
    for (std::uint32_t i = 0; i < prog.size(); ++i) {
        const auto my_lat = lat.steps(prog[i].kind);
        for (const auto succ : dag.successors(i)) {
            if (s.start[succ] < s.start[i] + my_lat)
                return ::testing::AssertionFailure()
                       << "instruction " << succ << " starts before "
                       << "predecessor " << i << " finishes";
        }
        if (s.start[i] + my_lat > s.makespan)
            return ::testing::AssertionFailure()
                   << "instruction " << i << " exceeds makespan";
    }
    // Block occupancy: intervals on the same block must not overlap
    // (zero-latency barriers exempt).
    std::vector<std::uint32_t> order(prog.size());
    for (std::uint32_t i = 0; i < prog.size(); ++i)
        order[i] = i;
    std::sort(order.begin(), order.end(),
              [&](std::uint32_t a, std::uint32_t b) {
                  if (s.block[a] != s.block[b])
                      return s.block[a] < s.block[b];
                  return s.start[a] < s.start[b];
              });
    for (std::size_t k = 1; k < order.size(); ++k) {
        const auto prev = order[k - 1];
        const auto cur = order[k];
        if (s.block[prev] != s.block[cur])
            continue;
        const auto prev_lat = lat.steps(prog[prev].kind);
        const auto cur_lat = lat.steps(prog[cur].kind);
        if (prev_lat == 0 || cur_lat == 0)
            continue;
        if (s.start[cur] < s.start[prev] + prev_lat)
            return ::testing::AssertionFailure()
                   << "block " << s.block[cur] << " overlaps: inst "
                   << prev << " and " << cur;
    }
    return ::testing::AssertionSuccess();
}

class ScheduleFuzz : public ::testing::TestWithParam<int>
{};

TEST_P(ScheduleFuzz, ListScheduleValidOnRandomCircuits)
{
    Random rng(static_cast<std::uint64_t>(GetParam()));
    const auto prog = gen::randomMixed(12, 400, rng);
    const circuit::DependencyGraph dag(prog);
    const sched::LatencyModel lat;
    for (unsigned blocks : {1u, 3u, 7u, sched::unlimited_blocks}) {
        const auto s = sched::listSchedule(prog, dag, lat, blocks);
        ASSERT_TRUE(scheduleIsValid(prog, dag, s, lat))
            << "blocks=" << blocks;
    }
}

TEST_P(ScheduleFuzz, RoundScheduleValidOnRandomCircuits)
{
    Random rng(static_cast<std::uint64_t>(GetParam()) + 1000);
    const auto prog = gen::randomMixed(10, 300, rng);
    const circuit::DependencyGraph dag(prog);
    const sched::LatencyModel lat;
    for (unsigned blocks : {1u, 4u, sched::unlimited_blocks}) {
        const auto s = sched::roundSchedule(prog, lat, blocks);
        ASSERT_TRUE(scheduleIsValid(prog, dag, s, lat))
            << "blocks=" << blocks;
    }
}

TEST_P(ScheduleFuzz, GreedyNeverSlowerThanRoundSync)
{
    Random rng(static_cast<std::uint64_t>(GetParam()) + 2000);
    const auto prog = gen::randomMixed(10, 250, rng);
    const sched::LatencyModel lat;
    for (unsigned blocks : {2u, 5u, 9u}) {
        const auto greedy = sched::listSchedule(prog, lat, blocks);
        const auto rs = sched::roundSchedule(prog, lat, blocks);
        EXPECT_LE(greedy.makespan, rs.makespan) << "blocks=" << blocks;
    }
}

INSTANTIATE_TEST_SUITE_P(Seeds, ScheduleFuzz,
                         ::testing::Range(0, 8));

TEST(TransferProperties, TriangleInequality)
{
    // Going through an intermediate encoding never beats the direct
    // transfer (src cost + dst cost both reappear).
    const net::TransferNetwork net(params);
    std::vector<net::Encoding> encodings;
    for (const auto kind : {ecc::CodeKind::Steane713,
                            ecc::CodeKind::BaconShor913})
        for (ecc::Level l = 1; l <= 2; ++l)
            encodings.push_back({kind, l});
    for (const auto &a : encodings)
        for (const auto &b : encodings)
            for (const auto &c : encodings)
                EXPECT_LE(net.transferTime(a, c),
                          net.transferTime(a, b) +
                              net.transferTime(b, c) + 1e-12);
}

TEST(Eq1Properties, MonotoneInPhysicalRate)
{
    double prev = 0.0;
    for (double p0 = 1e-9; p0 < 1e-5; p0 *= 3.0) {
        const double pf = ecc::localFailureRate(2, p0, 7.5e-5);
        EXPECT_GT(pf, prev);
        prev = pf;
    }
}

TEST(Eq1Properties, BudgetTightensWithProblemSize)
{
    double prev = 2.0;
    for (int n : {64, 128, 256, 512, 1024, 2048}) {
        const ecc::FidelityBudget budget(ecc::Code::steane(), params,
                                         ecc::shorKqOps(n));
        const double f = budget.maxLevel1OpsFraction();
        EXPECT_LE(f, prev);
        prev = f;
    }
}

class AdderWidthSweep : public ::testing::TestWithParam<int>
{};

TEST_P(AdderWidthSweep, StructuralInvariants)
{
    const int n = GetParam();
    gen::AdderLayout layout;
    const auto prog = gen::draperAdder(n, true, &layout);
    // Register map covers the program.
    EXPECT_EQ(prog.qubitCount(), layout.total_qubits);
    // Toffoli count grows linearly (between 8n and 11n for n >= 8).
    const auto toffolis = prog.gateCount(circuit::GateKind::Toffoli);
    if (n >= 16) {
        EXPECT_GE(toffolis, static_cast<std::uint64_t>(8 * n));
        EXPECT_LE(toffolis, static_cast<std::uint64_t>(11 * n));
    }
    // Round depth grows logarithmically: <= 2 + 9(log2(n)+1) rounds.
    const sched::LatencyModel lat;
    const auto s =
        sched::roundSchedule(prog, lat, sched::unlimited_blocks);
    int log2n = 0;
    while ((n >> log2n) > 1)
        ++log2n;
    EXPECT_LE(s.makespan,
              static_cast<std::uint64_t>((9 * (log2n + 1) + 2) *
                                         lat.toffoli));
}

INSTANTIATE_TEST_SUITE_P(Widths, AdderWidthSweep,
                         ::testing::Values(4, 8, 12, 16, 24, 32, 48,
                                           64, 96, 128, 192, 256, 512,
                                           1024));

} // namespace
} // namespace qmh

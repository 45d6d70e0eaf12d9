/** @file List and round-synchronous scheduler tests. */

#include <gtest/gtest.h>

#include <algorithm>
#include <utility>

#include "gen/draper.hh"
#include "sched/scheduler.hh"

namespace qmh {
namespace sched {
namespace {

using circuit::Program;
using circuit::QubitId;

Program
chainProgram(int gates)
{
    Program p("chain", 1);
    for (int i = 0; i < gates; ++i)
        p.x(QubitId(0));
    return p;
}

TEST(ListSchedule, RespectsDependencies)
{
    Program p("dep", 3);
    p.cnot(QubitId(0), QubitId(1));
    p.cnot(QubitId(1), QubitId(2));
    LatencyModel lat;
    const auto s = listSchedule(p, lat, unlimited_blocks);
    EXPECT_GE(s.start[1], s.start[0] + lat.cnot);
}

TEST(ListSchedule, ChainMakespanIsSumOfLatencies)
{
    LatencyModel lat;
    const auto s = listSchedule(chainProgram(10), lat, 4);
    EXPECT_EQ(s.makespan, 10u * lat.single);
}

TEST(ListSchedule, UnlimitedEqualsCriticalPath)
{
    Program p("wide", 8);
    for (int i = 0; i < 4; ++i)
        p.toffoli(QubitId(2 * i), QubitId(2 * i + 1),
                  QubitId((2 * i + 2) % 8));
    LatencyModel lat;
    const auto s = listSchedule(p, lat, unlimited_blocks);
    // All four Toffolis conflict pairwise through shared qubits; the
    // last one can only start after its predecessors release operands.
    EXPECT_GE(s.makespan, lat.toffoli);
}

TEST(ListSchedule, CapacityNeverExceeded)
{
    Program p("par", 12);
    for (int i = 0; i < 6; ++i)
        p.cnot(QubitId(2 * i), QubitId(2 * i + 1));
    LatencyModel lat;
    const auto s = listSchedule(p, lat, 2);
    const auto profile = s.inFlightProfile();
    for (const auto in_flight : profile)
        EXPECT_LE(in_flight, 2u);
    EXPECT_EQ(s.makespan, 3u);  // 6 unit gates on 2 blocks
}

TEST(ListSchedule, WorkConservingOnIndependentGates)
{
    Program p("ind", 20);
    for (int i = 0; i < 10; ++i)
        p.cnot(QubitId(2 * i), QubitId(2 * i + 1));
    LatencyModel lat;
    for (unsigned blocks : {1u, 2u, 5u, 10u}) {
        const auto s = listSchedule(p, lat, blocks);
        EXPECT_EQ(s.makespan, (10 + blocks - 1) / blocks)
            << "blocks=" << blocks;
    }
}

TEST(ListSchedule, BusyStepsIndependentOfBlocks)
{
    const auto prog = gen::draperAdder(16);
    LatencyModel lat;
    const auto a = listSchedule(prog, lat, 4);
    const auto b = listSchedule(prog, lat, unlimited_blocks);
    EXPECT_EQ(a.busy_block_steps, b.busy_block_steps);
}

TEST(ListSchedule, UtilizationBounded)
{
    const auto prog = gen::draperAdder(32);
    LatencyModel lat;
    for (unsigned blocks : {1u, 4u, 16u}) {
        const auto s = listSchedule(prog, lat, blocks);
        EXPECT_GT(s.utilization(), 0.0);
        EXPECT_LE(s.utilization(), 1.0 + 1e-9);
    }
}

TEST(ListSchedule, MoreBlocksNeverSlower)
{
    const auto prog = gen::draperAdder(32, true, nullptr,
                                       gen::UncomputeMode::Full, false);
    LatencyModel lat;
    std::uint64_t prev = ~0ull;
    for (unsigned blocks : {1u, 2u, 4u, 8u, 16u, 32u}) {
        const auto s = listSchedule(prog, lat, blocks);
        EXPECT_LE(s.makespan, prev);
        prev = s.makespan;
    }
}

TEST(RoundSchedule, StructuralRoundsAreBarriers)
{
    Program p("rounds", 4);
    p.x(QubitId(0));
    p.x(QubitId(1));
    p.x(QubitId(0));  // conflicts: opens round 2
    p.x(QubitId(2));  // joins round 2
    LatencyModel lat;
    const auto s = roundSchedule(p, lat, unlimited_blocks);
    EXPECT_EQ(s.makespan, 2u);
    EXPECT_EQ(s.start[0], 0u);
    EXPECT_EQ(s.start[1], 0u);
    EXPECT_EQ(s.start[2], 1u);
    EXPECT_EQ(s.start[3], 1u);
}

TEST(RoundSchedule, ExplicitBarrierSplitsRounds)
{
    Program p("b", 2);
    p.x(QubitId(0));
    p.barrier();
    p.x(QubitId(1));  // independent, but the barrier forces round 2
    LatencyModel lat;
    const auto s = roundSchedule(p, lat, unlimited_blocks);
    EXPECT_EQ(s.makespan, 2u);
}

TEST(RoundSchedule, BatchesWideRounds)
{
    Program p("wide", 12);
    for (int i = 0; i < 6; ++i)
        p.cnot(QubitId(2 * i), QubitId(2 * i + 1));
    LatencyModel lat;
    const auto two = roundSchedule(p, lat, 2);
    EXPECT_EQ(two.makespan, 3u);  // ceil(6/2) batches x 1 step
    const auto four = roundSchedule(p, lat, 4);
    EXPECT_EQ(four.makespan, 2u);
}

TEST(RoundSchedule, RoundSlotIsSlowestGate)
{
    Program p("mixed", 4);
    p.cnot(QubitId(0), QubitId(1));
    p.toffoli(QubitId(1), QubitId(2), QubitId(3));  // conflict: round 2
    LatencyModel lat;
    const auto s = roundSchedule(p, lat, unlimited_blocks);
    EXPECT_EQ(s.makespan, lat.cnot + lat.toffoli);
}

TEST(RoundSchedule, AdderCriticalPathMatchesPaperScale)
{
    // Fig. 2: the 64-bit adder spans roughly 20-25 Toffoli slots.
    const auto prog = gen::draperAdder(
        64, true, nullptr, gen::UncomputeMode::CarriesLeftDirty);
    LatencyModel lat;
    const auto s = roundSchedule(prog, lat, unlimited_blocks);
    const double slots =
        static_cast<double>(s.makespan) / lat.toffoli;
    EXPECT_GE(slots, 20.0);
    EXPECT_LE(slots, 26.0);
}

TEST(RoundSchedule, FifteenBlocksMatchUnlimitedFor64Bit)
{
    // The paper's Fig. 2 claim: 15 compute blocks achieve the same
    // total runtime as unlimited resources for the 64-bit adder
    // (under the work-conserving bound).
    const auto prog = gen::draperAdder(
        64, true, nullptr, gen::UncomputeMode::CarriesLeftDirty);
    LatencyModel lat;
    const auto unl = roundSchedule(prog, lat, unlimited_blocks);
    const double work_bound =
        static_cast<double>(unl.busy_block_steps) / 15.0;
    EXPECT_LE(work_bound, static_cast<double>(unl.makespan));
}

TEST(Schedules, ProfilesAccountForAllWork)
{
    const auto prog = gen::draperAdder(16);
    LatencyModel lat;
    for (const auto &s :
         {listSchedule(prog, lat, 4), roundSchedule(prog, lat, 4)}) {
        const auto profile = s.inFlightProfile();
        std::uint64_t area = 0;
        for (const auto v : profile)
            area += v;
        EXPECT_EQ(area, s.busy_block_steps);
    }
}

TEST(Schedules, SegmentsMatchDenseProfile)
{
    const auto prog = gen::draperAdder(16);
    LatencyModel lat;
    const auto s = listSchedule(prog, lat, 4);
    const auto dense = s.inFlightProfile();
    const auto segments = s.inFlightSegments();
    ASSERT_FALSE(segments.empty());
    // Segments tile [0, makespan) contiguously...
    EXPECT_EQ(segments.front().begin, 0u);
    EXPECT_EQ(segments.back().end, s.makespan);
    for (std::size_t i = 1; i < segments.size(); ++i)
        EXPECT_EQ(segments[i].begin, segments[i - 1].end);
    // ...and agree with the dense expansion everywhere.
    for (const auto &segment : segments)
        for (auto t = segment.begin; t < segment.end; ++t)
            EXPECT_EQ(dense[t], segment.in_flight) << "t=" << t;
}

TEST(Schedules, HugeLatencyProfilesStaySparse)
{
    // A tick-resolution trace can have makespans in the billions; the
    // profile machinery must scale with the gate count, not the
    // schedule length. Before the segment refactor this test would
    // try to allocate makespan slots (tens of gigabytes) and die.
    Program p("huge", 2);
    for (int i = 0; i < 3; ++i)
        p.toffoli(QubitId(0), QubitId(1), p.addQubit());
    LatencyModel lat;
    lat.toffoli = 2'000'000'000;  // 2e9 steps per gate
    const auto s = listSchedule(p, lat, 1);
    EXPECT_EQ(s.makespan, 6'000'000'000ull);

    EXPECT_EQ(s.peakParallelism(), 1u);
    const auto segments = s.inFlightSegments();
    ASSERT_EQ(segments.size(), 1u);  // one constant run of 1
    EXPECT_EQ(segments[0].in_flight, 1u);
    // Segment area accounts for every block-step of real work.
    std::uint64_t area = 0;
    for (const auto &segment : segments)
        area += (segment.end - segment.begin) * segment.in_flight;
    EXPECT_EQ(area, s.busy_block_steps);

    const auto windows = s.windowedProfile(2'000'000'000);
    ASSERT_EQ(windows.size(), 3u);
    for (const auto w : windows)
        EXPECT_DOUBLE_EQ(w, 1.0);
    EXPECT_DOUBLE_EQ(s.utilization(), 1.0);
}

TEST(IncrementalSchedule, DrivesIdenticallyToBatch)
{
    // Claim-all / advance / complete-in-finish-order is exactly the
    // batch algorithm; driving the incremental form by hand must
    // reproduce listSchedule's decisions.
    const auto prog = gen::draperAdder(
        16, true, nullptr, gen::UncomputeMode::CarriesLeftDirty);
    circuit::DependencyGraph dag(prog);
    LatencyModel lat;
    const auto batch = listSchedule(prog, dag, lat, 4);

    const SchedulePlan plan(prog, dag, lat);
    IncrementalScheduler inc(plan, 4);
    std::vector<std::uint64_t> start(prog.size(), 0);
    // (finish, index) ordered retirement, like the batch driver.
    std::vector<std::pair<std::uint64_t, IssueClaim>> running;
    std::uint64_t now = 0;
    while (!inc.finished()) {
        while (const auto claimed = inc.claim()) {
            start[claimed->index] = now;
            running.push_back({now + claimed->latency, *claimed});
        }
        ASSERT_FALSE(running.empty());
        std::sort(running.begin(), running.end(),
                  [](const auto &a, const auto &b) {
                      return std::make_pair(a.first, a.second.index) <
                             std::make_pair(b.first, b.second.index);
                  });
        now = running.front().first;
        while (!running.empty() && running.front().first == now) {
            inc.complete(running.front().second);
            running.erase(running.begin());
        }
    }
    EXPECT_EQ(now, batch.makespan);
    EXPECT_EQ(start, batch.start);
    EXPECT_EQ(inc.blocksUsed(), batch.blocks_used);
    EXPECT_EQ(inc.busyBlockSteps(), batch.busy_block_steps);
}

TEST(IncrementalSchedule, ClaimBatchMatchesRepeatedClaimExactly)
{
    // claimBatch is the engine's batch-issue path; it must hand out
    // the same (index, block, latency) sequence as looping claim()
    // until nullopt at every decision point of a real schedule.
    const auto prog = gen::draperAdder(
        16, true, nullptr, gen::UncomputeMode::CarriesLeftDirty);
    circuit::DependencyGraph dag(prog);
    LatencyModel lat;
    const SchedulePlan plan(prog, dag, lat);
    for (const unsigned blocks : {0u, 3u, 8u}) {
        IncrementalScheduler one(plan, blocks);
        IncrementalScheduler batch(plan, blocks);
        std::vector<std::pair<std::uint64_t, IssueClaim>> running;
        std::uint64_t now = 0;
        while (!one.finished()) {
            std::vector<IssueClaim> singles;
            while (const auto claimed = one.claim())
                singles.push_back(*claimed);
            std::vector<IssueClaim> front;
            batch.claimBatch(front);
            ASSERT_EQ(front.size(), singles.size());
            for (std::size_t i = 0; i < front.size(); ++i) {
                EXPECT_EQ(front[i].index, singles[i].index);
                EXPECT_EQ(front[i].block, singles[i].block);
                EXPECT_EQ(front[i].latency, singles[i].latency);
                running.push_back(
                    {now + singles[i].latency, singles[i]});
            }
            ASSERT_FALSE(running.empty());
            std::sort(running.begin(), running.end(),
                      [](const auto &a, const auto &b) {
                          return std::make_pair(a.first,
                                                a.second.index) <
                                 std::make_pair(b.first,
                                                b.second.index);
                      });
            now = running.front().first;
            while (!running.empty() && running.front().first == now) {
                one.complete(running.front().second);
                batch.complete(running.front().second);
                running.erase(running.begin());
            }
        }
        EXPECT_TRUE(batch.finished());
        EXPECT_EQ(one.blocksUsed(), batch.blocksUsed());
    }
}

TEST(IncrementalSchedule, ClaimRespectsBlockCapAndReadiness)
{
    Program p("cap", 4);
    p.cnot(QubitId(0), QubitId(1));
    p.cnot(QubitId(2), QubitId(3));
    p.cnot(QubitId(1), QubitId(2));  // depends on both
    circuit::DependencyGraph dag(p);
    LatencyModel lat;
    const SchedulePlan plan(p, dag, lat);
    IncrementalScheduler inc(plan, 1);

    const auto first = inc.claim();
    ASSERT_TRUE(first.has_value());
    EXPECT_FALSE(inc.claim().has_value());  // single block busy
    inc.complete(*first);
    const auto second = inc.claim();
    ASSERT_TRUE(second.has_value());
    EXPECT_NE(second->index, first->index);
    inc.complete(*second);
    const auto third = inc.claim();
    ASSERT_TRUE(third.has_value());
    EXPECT_EQ(third->index, 2u);  // only ready after both parents
    inc.complete(*third);
    EXPECT_TRUE(inc.finished());
    EXPECT_FALSE(inc.claim().has_value());
}

TEST(Schedules, WindowedProfileAverages)
{
    Program p("w", 2);
    p.toffoli(QubitId(0), QubitId(1), p.addQubit());
    LatencyModel lat;
    const auto s = listSchedule(p, lat, 1);
    const auto w = s.windowedProfile(15);
    ASSERT_EQ(w.size(), 1u);
    EXPECT_DOUBLE_EQ(w[0], 1.0);
}

TEST(SchedulesDeath, ZeroWindowPanics)
{
    Program p("w", 1);
    p.x(QubitId(0));
    LatencyModel lat;
    const auto s = listSchedule(p, lat, 1);
    EXPECT_DEATH(s.windowedProfile(0), "zero window");
}

} // namespace
} // namespace sched
} // namespace qmh

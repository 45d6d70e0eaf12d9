/** @file Unit tests for the discrete-event kernel. */

#include <algorithm>
#include <array>
#include <tuple>
#include <type_traits>
#include <vector>

#include <gtest/gtest.h>

#include "common/random.hh"
#include "sim/event_queue.hh"

namespace qmh {
namespace sim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickUsesPriorityThenFifo)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] { order.push_back(2); }, Priority::Default);
    eq.schedule(5, [&] { order.push_back(3); }, Priority::Late);
    eq.schedule(5, [&] { order.push_back(1); }, Priority::Stat);
    eq.schedule(5, [&] { order.push_back(20); }, Priority::Default);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 20, 3}));
}

TEST(EventQueue, HandlersCanScheduleMoreEvents)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] {
        ++fired;
        eq.scheduleAfter(1, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 2u);
}

TEST(EventQueue, ZeroDelaySelfScheduleRunsSameTick)
{
    EventQueue eq;
    int count = 0;
    std::function<void()> again = [&] {
        if (++count < 5)
            eq.scheduleAfter(0, again);
    };
    eq.schedule(7, again);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, RunRespectsLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(100, [&] { ++fired; });
    eq.run(50);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 1u);
    eq.run();
    EXPECT_EQ(fired, 2);
}

TEST(EventQueue, RunExecutesEventsExactlyAtLimit)
{
    // The limit is inclusive: "run until time would pass limit" means
    // an event scheduled exactly at the limit still belongs to this
    // run() call, including same-tick events it schedules in turn.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(50, [&] {
        order.push_back(2);
        eq.scheduleAfter(0, [&] { order.push_back(3); });
        eq.scheduleAfter(1, [&] { order.push_back(4); });
    });
    eq.schedule(90, [&] { order.push_back(5); });
    EXPECT_EQ(eq.run(50), 50u);
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 50u);
    EXPECT_EQ(eq.pending(), 2u);
    EXPECT_EQ(eq.executed(), 3u);
}

TEST(EventQueue, RunToLimitAdvancesTimeWithNothingToDo)
{
    // An explicit finite limit is a statement that simulated time
    // passed, so now() lands on the limit even when no event was due;
    // the default run() (drain) never invents time beyond the last
    // executed event.
    EventQueue eq;
    EXPECT_EQ(eq.run(25), 25u);
    EXPECT_EQ(eq.now(), 25u);
    EXPECT_EQ(eq.run(), 25u);
    EXPECT_EQ(eq.now(), 25u);
}

TEST(EventQueue, RunReentryAfterLimit)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(10, [&] { ++fired; });
    eq.schedule(60, [&] { ++fired; });
    EXPECT_EQ(eq.run(50), 50u);
    EXPECT_EQ(fired, 1);
    // A later, smaller limit must not move time backwards or execute
    // anything.
    EXPECT_EQ(eq.run(20), 50u);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.pending(), 1u);
    // Re-entering with the default limit drains the remainder and
    // leaves now() at the last executed event.
    EXPECT_EQ(eq.run(), 60u);
    EXPECT_EQ(fired, 2);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, SameTickStatScheduledDynamicallyStillPrecedesDefault)
{
    // A Stat event scheduled *during* the tick (by a Default handler)
    // must still run before the remaining Default and Late events of
    // that tick: priority outranks insertion order within a tick, so
    // late-scheduled samplers cannot be starved behind state changes
    // that were enqueued earlier.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(5, [&] {
        order.push_back(1);
        eq.schedule(5, [&] { order.push_back(2); }, Priority::Stat);
    });
    eq.schedule(5, [&] { order.push_back(3); }, Priority::Default);
    eq.schedule(5, [&] { order.push_back(4); }, Priority::Late);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, InsertionOrderBreaksTiesWithinOnePriority)
{
    // Within one (tick, priority) class, dispatch order is insertion
    // order — the contract every queue implementation must reproduce
    // exactly, whatever its internal layout.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(9, [&] { order.push_back(0); }, Priority::Late);
    for (int i = 1; i <= 6; ++i)
        eq.schedule(9, [&, i] { order.push_back(i); });
    eq.schedule(9, [&] { order.push_back(7); }, Priority::Late);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6, 0, 7}));
}

TEST(EventQueue, DynamicCurrentTickEventsKeepPriorityThenFifo)
{
    // Events scheduled *at the current tick while it is dispatching*
    // join that tick's remaining events in (priority, insertion)
    // order: a later Default lands after pending Defaults, a Late
    // lands after pending Lates, and a Stat jumps ahead of both.
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(3, [&] {
        order.push_back(1);
        eq.scheduleAfter(0, [&] { order.push_back(4); });
        eq.schedule(3, [&] { order.push_back(6); }, Priority::Late);
        eq.schedule(3, [&] { order.push_back(2); }, Priority::Stat);
    });
    eq.schedule(3, [&] { order.push_back(3); });
    eq.schedule(3, [&] { order.push_back(5); }, Priority::Late);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(EventQueue, MatchesReferenceOrderUnderMixedHorizonStress)
{
    // Contract stress: several hundred events over wildly mixed
    // horizons (same-tick, near, and millions of ticks out) must
    // dispatch in exactly (tick, priority, insertion-order) — the
    // order of a stable sort over the schedule log. Handlers also
    // schedule follow-on events mid-run, covering insertions into
    // already-active regions of the timeline.
    EventQueue eq;
    Random rng(2026);
    const Tick deltas[] = {0,     1,      2,       7,       63,
                           1024,  4097,   65536,   1000000, 33554432,
                           12345, 999983, 5000000, 250000001};
    const Priority prios[] = {Priority::Stat, Priority::Default,
                              Priority::Default, Priority::Default,
                              Priority::Late};

    // (when, prio, seq) -> id, appended in schedule order.
    std::vector<std::tuple<Tick, int, std::uint64_t, int>> log;
    std::vector<int> order;
    int next_id = 0;

    // A same-tick event spawned from inside a handler cannot outrank
    // work that already ran this tick, so a zero-delay spawn is
    // clamped to its parent's priority; every other (delta, priority)
    // combination is fair game for the sort-order comparison.
    std::function<void(int, Priority)> plant = [&](int depth,
                                                   Priority parent) {
        const auto delta =
            deltas[rng.uniformInt(std::size(deltas))];
        auto prio = prios[rng.uniformInt(std::size(prios))];
        if (delta == 0 && prio < parent)
            prio = parent;
        const auto id = next_id++;
        const Tick when = eq.now() + delta;
        const auto spawn = depth > 0 && rng.bernoulli(0.25);
        const auto seq = eq.schedule(
            when,
            [&order, &plant, id, spawn, depth, prio] {
                order.push_back(id);
                if (spawn)
                    plant(depth - 1, prio);
            },
            prio);
        log.emplace_back(when, static_cast<int>(prio), seq, id);
    };
    for (int i = 0; i < 400; ++i)
        plant(3, Priority::Stat);
    eq.run();

    std::stable_sort(log.begin(), log.end());
    std::vector<int> expected;
    expected.reserve(log.size());
    for (const auto &entry : log)
        expected.push_back(std::get<3>(entry));
    ASSERT_EQ(order.size(), log.size());
    EXPECT_EQ(order, expected);
    EXPECT_EQ(eq.executed(), log.size());
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, SteadyStateDispatchReusesArenaFrames)
{
    // The no-allocation acceptance pin: a long self-renewing event
    // chain keeps only a couple of events in flight while executing
    // tens of thousands, so the arena must never grow past its first
    // block (frames recycle through the free list) and no handler may
    // spill past the inline closure budget.
    EventQueue eq;
    std::uint64_t fired = 0;
    std::function<void()> chain = [&] {
        if (++fired < 50000)
            eq.scheduleAfter(3, chain);
    };
    eq.schedule(1, chain);
    eq.run();
    EXPECT_EQ(fired, 50000u);
    EXPECT_EQ(eq.arenaBlocks(), 1u);
    EXPECT_EQ(eq.spilledHandlers(), 0u);
}

TEST(EventQueue, OversizedClosuresSpillAndAreCounted)
{
    EventQueue eq;
    std::array<std::uint64_t, 12> payload{};  // 96 B > inline budget
    payload[11] = 7;
    std::uint64_t seen = 0;
    eq.schedule(1, [payload, &seen] { seen = payload[11]; });
    eq.run();
    EXPECT_EQ(seen, 7u);
    EXPECT_EQ(eq.spilledHandlers(), 1u);
}

TEST(EventQueue, InlineBudgetIsThirtyTwoBytes)
{
    // The frame budget every hot-path closure is sized against: four
    // words (a port completion is {port, sink, tag}) and a
    // std::function Handler stay inline; one word more spills.
    EXPECT_EQ(EventQueue::event_inline_bytes, 32u);
    EventQueue eq;
    std::uint64_t sum = 0;
    const std::array<std::uint64_t, 3> three{1, 2, 3};
    const auto fits = [three, &sum] { sum += three[0] + three[2]; };
    static_assert(sizeof(fits) == 32);
    static_assert(std::is_trivially_copyable_v<decltype(fits)>);
    eq.schedule(1, fits);
    eq.schedule(2, EventQueue::Handler([&sum] { sum += 10; }));
    EXPECT_EQ(eq.spilledHandlers(), 0u);

    const std::array<std::uint64_t, 4> four{1, 2, 3, 100};
    const auto spills = [four, &sum] { sum += four[3]; };
    static_assert(sizeof(spills) == 40);
    eq.schedule(3, spills);
    eq.run();
    EXPECT_EQ(sum, 4u + 10u + 100u);
    EXPECT_EQ(eq.spilledHandlers(), 1u);
}

TEST(EventQueue, RunToLimitThenSchedulingAtNowIsLegal)
{
    // After run(limit) advanced time to the limit, the present tick
    // must remain schedulable (only the strict past panics).
    EventQueue eq;
    eq.run(40);
    int fired = 0;
    eq.schedule(40, [&] { ++fired; });
    eq.run(40);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, StepExecutesOneEvent)
{
    EventQueue eq;
    int fired = 0;
    eq.schedule(1, [&] { ++fired; });
    eq.schedule(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(eq.executed(), 2u);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue eq;
    eq.schedule(10, [] {});
    eq.run();
    EXPECT_DEATH(eq.schedule(5, [] {}), "past");
}

TEST(EventQueueDeath, EmptyHandlerPanics)
{
    EventQueue eq;
    EXPECT_DEATH(eq.schedule(1, EventQueue::Handler{}), "empty handler");
}

} // namespace
} // namespace sim
} // namespace qmh

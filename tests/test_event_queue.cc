/** @file Unit tests for the discrete-event kernel. */

#include <algorithm>
#include <functional>
#include <iterator>
#include <tuple>
#include <vector>

#include <gtest/gtest.h>

#include "closure_sink.hh"
#include "common/random.hh"
#include "sim/event_queue.hh"

namespace qmh {
namespace sim {
namespace {

TEST(EventQueue, ExecutesInTimeOrder)
{
    EventQueue eq;
    ClosureSink fns(eq);
    std::vector<int> order;
    fns.at(30, [&] { order.push_back(3); });
    fns.at(10, [&] { order.push_back(1); });
    fns.at(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickUsesPriorityThenFifo)
{
    EventQueue eq;
    ClosureSink fns(eq);
    std::vector<int> order;
    fns.at(5, [&] { order.push_back(2); }, Priority::Default);
    fns.at(5, [&] { order.push_back(3); }, Priority::Late);
    fns.at(5, [&] { order.push_back(1); }, Priority::Stat);
    fns.at(5, [&] { order.push_back(20); }, Priority::Default);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 20, 3}));
}

TEST(EventQueue, HandlersCanScheduleMoreEvents)
{
    EventQueue eq;
    ClosureSink fns(eq);
    int fired = 0;
    fns.at(1, [&] {
        ++fired;
        fns.after(1, [&] { ++fired; });
    });
    eq.run();
    EXPECT_EQ(fired, 2);
    EXPECT_EQ(eq.now(), 2u);
}

TEST(EventQueue, ZeroDelaySelfScheduleRunsSameTick)
{
    EventQueue eq;
    ClosureSink fns(eq);
    int count = 0;
    std::function<void()> again = [&] {
        if (++count < 5)
            fns.after(0, again);
    };
    fns.at(7, again);
    eq.run();
    EXPECT_EQ(count, 5);
    EXPECT_EQ(eq.now(), 7u);
}

TEST(EventQueue, RunRespectsLimit)
{
    EventQueue eq;
    ClosureSink fns(eq);
    int fired = 0;
    fns.at(10, [&] { ++fired; });
    fns.at(100, [&] { ++fired; });
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
    ClosureSink fns(eq);
    std::vector<int> order;
    fns.at(10, [&] { order.push_back(1); });
    fns.at(50, [&] {
        order.push_back(2);
        fns.after(0, [&] { order.push_back(3); });
        fns.after(1, [&] { order.push_back(4); });
    });
    fns.at(90, [&] { order.push_back(5); });
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
    ClosureSink fns(eq);
    int fired = 0;
    fns.at(10, [&] { ++fired; });
    fns.at(60, [&] { ++fired; });
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
    ClosureSink fns(eq);
    std::vector<int> order;
    fns.at(5, [&] {
        order.push_back(1);
        fns.at(5, [&] { order.push_back(2); }, Priority::Stat);
    });
    fns.at(5, [&] { order.push_back(3); }, Priority::Default);
    fns.at(5, [&] { order.push_back(4); }, Priority::Late);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(EventQueue, InsertionOrderBreaksTiesWithinOnePriority)
{
    // Within one (tick, priority) class, dispatch order is insertion
    // order — the contract every queue implementation must reproduce
    // exactly, whatever its internal layout.
    EventQueue eq;
    ClosureSink fns(eq);
    std::vector<int> order;
    fns.at(9, [&] { order.push_back(0); }, Priority::Late);
    for (int i = 1; i <= 6; ++i)
        fns.at(9, [&, i] { order.push_back(i); });
    fns.at(9, [&] { order.push_back(7); }, Priority::Late);
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
    ClosureSink fns(eq);
    std::vector<int> order;
    fns.at(3, [&] {
        order.push_back(1);
        fns.after(0, [&] { order.push_back(4); });
        fns.at(3, [&] { order.push_back(6); }, Priority::Late);
        fns.at(3, [&] { order.push_back(2); }, Priority::Stat);
    });
    fns.at(3, [&] { order.push_back(3); });
    fns.at(3, [&] { order.push_back(5); }, Priority::Late);
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5, 6}));
}

TEST(EventQueue, MatchesReferenceOrderUnderMixedHorizonStress)
{
    // Contract stress: thousands of events over wildly mixed horizons
    // (same-tick, near, and millions of ticks out) must dispatch in
    // exactly (tick, priority, insertion-order) — the order of a
    // stable sort over the schedule log. There are more distinct
    // delays than lanes, so lanes rebind and the overflow heap takes
    // the rest. Handlers schedule follow-on events mid-run, some of
    // them re-arm at zero delay, and the run advances through step()
    // and run(limit) jumps with more events planted between slices.
    EventQueue eq;
    ClosureSink fns(eq);
    Random rng(2026);
    const Tick deltas[] = {0,     1,      2,       7,       63,
                           1024,  4097,   65536,   1000000, 33554432,
                           12345, 999983, 5000000, 250000001};
    static_assert(std::size(deltas) > EventQueue::lane_count);
    const Priority prios[] = {Priority::Stat, Priority::Default,
                              Priority::Default, Priority::Default,
                              Priority::Late};
    const auto randomDelta = [&] {
        return deltas[rng.uniformInt(std::size(deltas))];
    };

    // (when, prio, seq) -> id, appended in schedule order.
    std::vector<std::tuple<Tick, int, std::uint64_t, int>> log;
    std::vector<int> order;
    int next_id = 0;

    // The last dispatched event's (tick, priority). A same-tick event
    // planted after it cannot outrank work that already ran this
    // tick, so its priority is clamped to at least that one's; every
    // other (delta, priority) combination is fair game for the
    // sort-order comparison.
    bool dispatched = false;
    Tick last_when = 0;
    Priority last_prio = Priority::Stat;

    std::function<void(int, Tick, int)> plant = [&](int depth, Tick delta,
                                                    int rearms) {
        auto prio = prios[rng.uniformInt(std::size(prios))];
        const Tick when = eq.now() + delta;
        if (dispatched && last_when == when && prio < last_prio)
            prio = last_prio;
        const auto id = next_id++;
        const auto spawn = depth > 0 && rng.bernoulli(0.25);
        const auto seq = fns.at(
            when,
            [&, id, spawn, depth, rearms, prio] {
                order.push_back(id);
                dispatched = true;
                last_when = eq.now();
                last_prio = prio;
                if (spawn)
                    plant(depth - 1, randomDelta(), 0);
                if (rearms > 0)
                    plant(0, 0, rearms - 1);
            },
            prio);
        log.emplace_back(when, static_cast<int>(prio), seq, id);
    };
    for (int i = 0; i < 400; ++i)
        plant(3, randomDelta(), rng.bernoulli(0.1) ? 3 : 0);
    while (next_id < 3000 || !eq.empty()) {
        switch (rng.uniformInt(3)) {
          case 0: {
            const bool had_event = !eq.empty();
            EXPECT_EQ(eq.step(), had_event);
            break;
          }
          case 1: {
            const Tick limit = eq.now() + randomDelta();
            EXPECT_EQ(eq.run(limit), limit);
            break;
          }
          default:
            if (next_id < 3000)
                for (int i = 0; i < 4; ++i)
                    plant(2, randomDelta(), rng.bernoulli(0.1) ? 2 : 0);
            break;
        }
    }

    std::stable_sort(log.begin(), log.end());
    std::vector<int> expected;
    expected.reserve(log.size());
    for (const auto &entry : log)
        expected.push_back(std::get<3>(entry));
    ASSERT_EQ(order.size(), log.size());
    EXPECT_EQ(order, expected);
    EXPECT_EQ(eq.executed(), log.size());
    EXPECT_GE(log.size(), 3000u);
}

TEST(EventQueue, SteadyStateDispatchDoesNotGrowStorage)
{
    // The no-allocation pin: twelve self-renewing chains, each with
    // its own delay (more pairs than lanes, so some live in the
    // overflow heap), keep twelve events in flight while executing
    // tens of thousands. Once the first events have run, the queue's
    // storage never grows again.
    struct Chains final : CompletionSink
    {
        explicit Chains(EventQueue &eq) : eq(eq) {}
        EventQueue &eq;
        std::uint64_t fired = 0;

        void
        complete(std::uint64_t tag) override
        {
            if (++fired < 60000)
                eq.scheduleAfter(3 + tag, {this, tag});
        }
    };
    EventQueue eq;
    Chains chains(eq);
    for (std::uint64_t chain = 0; chain < 12; ++chain)
        eq.schedule(1, {&chains, chain});
    static_assert(12 > EventQueue::lane_count);
    eq.run(100);
    const auto warm = eq.capacity();
    EXPECT_GT(warm, 0u);
    eq.run();
    // The chain that fired the 60000th event stopped; the other
    // eleven each fire once more.
    EXPECT_EQ(chains.fired, 60011u);
    EXPECT_EQ(eq.capacity(), warm);
    EXPECT_TRUE(eq.empty());
}

TEST(EventQueue, RunToLimitThenSchedulingAtNowIsLegal)
{
    // After run(limit) advanced time to the limit, the present tick
    // must remain schedulable (only the strict past panics).
    EventQueue eq;
    ClosureSink fns(eq);
    eq.run(40);
    int fired = 0;
    fns.at(40, [&] { ++fired; });
    eq.run(40);
    EXPECT_EQ(fired, 1);
    EXPECT_EQ(eq.now(), 40u);
}

TEST(EventQueue, StepExecutesOneEvent)
{
    EventQueue eq;
    ClosureSink fns(eq);
    int fired = 0;
    fns.at(1, [&] { ++fired; });
    fns.at(2, [&] { ++fired; });
    EXPECT_TRUE(eq.step());
    EXPECT_EQ(fired, 1);
    EXPECT_TRUE(eq.step());
    EXPECT_FALSE(eq.step());
    EXPECT_EQ(eq.executed(), 2u);
}

TEST(EventQueueDeath, PastSchedulingPanics)
{
    EventQueue eq;
    ClosureSink fns(eq);
    fns.at(10, [] {});
    eq.run();
    EXPECT_DEATH(fns.at(5, [] {}), "past");
}

TEST(EventQueueDeath, NullSinkPanics)
{
    EventQueue eq;
    EXPECT_DEATH(eq.schedule(1, {}), "without a sink");
}

} // namespace
} // namespace sim
} // namespace qmh

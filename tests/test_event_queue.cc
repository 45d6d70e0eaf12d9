/** @file Unit tests for the discrete-event kernel. */

#include <algorithm>
#include <functional>
#include <iterator>
#include <utility>
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

TEST(EventQueue, InsertionOrderBreaksSameTickTies)
{
    // Events of one tick dispatch in insertion order — the contract
    // every queue implementation must reproduce exactly, whatever its
    // internal layout. The last event reaches tick 9 from tick 4, so
    // it sits in another delay's lane than the rest.
    EventQueue eq;
    ClosureSink fns(eq);
    std::vector<int> order;
    fns.at(9, [&] { order.push_back(0); });
    for (int i = 1; i <= 6; ++i)
        fns.at(9, [&, i] { order.push_back(i); });
    fns.at(4, [&] { fns.after(5, [&] { order.push_back(8); }); });
    fns.at(9, [&] { order.push_back(7); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4, 5, 6, 7, 8}));
}

TEST(EventQueue, DynamicCurrentTickEventsKeepFifoOrder)
{
    // Events scheduled *at the current tick while it is dispatching*
    // join that tick behind its pending events, in insertion order.
    EventQueue eq;
    ClosureSink fns(eq);
    std::vector<int> order;
    fns.at(3, [&] {
        order.push_back(1);
        fns.after(0, [&] { order.push_back(4); });
        fns.at(3, [&] { order.push_back(5); });
    });
    fns.at(3, [&] { order.push_back(2); });
    fns.at(3, [&] { order.push_back(3); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(EventQueue, MatchesReferenceOrderUnderMixedHorizonStress)
{
    // Contract stress: thousands of events over wildly mixed horizons
    // (same-tick, near, and millions of ticks out) must dispatch in
    // exactly (tick, insertion order) — the order of a stable sort by
    // tick over the schedule log. There are more distinct delays than
    // lanes, so lanes rebind and the overflow heap takes the rest.
    // Handlers schedule follow-on events mid-run: some spawn one
    // child, some re-arm at zero delay, and until 3000 events exist
    // some plant a batch of four more.
    EventQueue eq;
    ClosureSink fns(eq);
    Random rng(2026);
    const Tick deltas[] = {0,     1,      2,       7,       63,
                           1024,  4097,   65536,   1000000, 33554432,
                           12345, 999983, 5000000, 250000001};
    static_assert(std::size(deltas) > EventQueue::lane_count);
    const auto randomDelta = [&] {
        return deltas[rng.uniformInt(std::size(deltas))];
    };

    // (when, id), appended in schedule order.
    std::vector<std::pair<Tick, int>> log;
    std::vector<int> order;
    int next_id = 0;

    std::function<void(int, Tick, int)> plant = [&](int depth, Tick delta,
                                                    int rearms) {
        const Tick when = eq.now() + delta;
        const auto id = next_id++;
        const auto spawn = depth > 0 && rng.bernoulli(0.25);
        const auto batch = rng.bernoulli(0.5);
        fns.at(when, [&, id, spawn, batch, depth, rearms] {
            order.push_back(id);
            if (spawn)
                plant(depth - 1, randomDelta(), 0);
            if (rearms > 0)
                plant(0, 0, rearms - 1);
            if (batch && next_id < 3000)
                for (int i = 0; i < 4; ++i)
                    plant(2, randomDelta(), rng.bernoulli(0.1) ? 2 : 0);
        });
        log.emplace_back(when, id);
    };
    for (int i = 0; i < 400; ++i)
        plant(3, randomDelta(), rng.bernoulli(0.1) ? 3 : 0);
    eq.run();

    std::stable_sort(log.begin(), log.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    std::vector<int> expected;
    expected.reserve(log.size());
    for (const auto &entry : log)
        expected.push_back(entry.second);
    ASSERT_EQ(order.size(), log.size());
    EXPECT_EQ(order, expected);
    EXPECT_EQ(eq.executed(), log.size());
    EXPECT_GE(log.size(), 3000u);
}

TEST(EventQueue, SteadyStateDispatchDoesNotGrowStorage)
{
    // The no-allocation pin: twelve self-renewing chains, each with
    // its own delay (more delays than lanes, so some live in the
    // overflow heap), keep twelve events in flight while executing
    // tens of thousands. Once the first events have run, the queue's
    // storage never grows again: a probe event at tick 100 reads the
    // capacity the rest of the run must keep.
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
    ClosureSink probe(eq);
    std::size_t warm = 0;
    probe.at(100, [&] { warm = eq.capacity(); });
    eq.run();
    EXPECT_GT(warm, 0u);
    // The chain that fired the 60000th event stopped; the other
    // eleven each fire once more.
    EXPECT_EQ(chains.fired, 60011u);
    EXPECT_EQ(eq.capacity(), warm);
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

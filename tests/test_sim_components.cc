/**
 * @file
 * Resource-kernel tests: Port arbitration determinism, TokenPool
 * FIFO wake order, bounded-buffer backpressure, the banked memory's
 * conflict accounting and summed stats, and the division guards on
 * every utilization and mean-queue report.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <string>
#include <vector>

#include "closure_sink.hh"
#include "common/units.hh"
#include "sim/banked_memory.hh"
#include "sim/event_queue.hh"
#include "sim/port.hh"

namespace qmh {
namespace sim {
namespace {

/** Completion sink that records each reported tag and its tick. */
class RecordingSink final : public CompletionSink
{
  public:
    explicit RecordingSink(const EventQueue &eq) : _eq(eq) {}

    /** A completion that reports @p tag here. */
    Completion operator()(std::uint64_t tag) { return {this, tag}; }

    void
    complete(std::uint64_t tag) override
    {
        tags.push_back(tag);
        ticks.push_back(_eq.now());
    }

    /** The recorded tags as ints, in completion order. */
    std::vector<int>
    ids() const
    {
        std::vector<int> out;
        for (const auto tag : tags)
            out.push_back(static_cast<int>(tag));
        return out;
    }

    std::vector<std::uint64_t> tags;
    std::vector<Tick> ticks;

  private:
    const EventQueue &_eq;
};

TEST(SimPort, UncontendedRequestIsNeverAConflict)
{
    EventQueue eq;
    ClosureSink fns(eq);
    Port port(eq, "p0", /*width=*/2, /*buffer_limit=*/4);

    RecordingSink sink(eq);
    fns.at(0, [&]() {
        port.submit(10, sink(0));
        port.submit(10, sink(1));
    });
    eq.run();

    const auto done = static_cast<int>(sink.tags.size());
    EXPECT_EQ(done, 2);
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(port.stats().requests, 2u);
    EXPECT_EQ(port.stats().served, 2u);
    EXPECT_EQ(port.stats().conflict_stalls, 0u);
    EXPECT_EQ(port.stats().stall_ticks, 0u);
    EXPECT_EQ(port.stats().buffer_overflows, 0u);
    // Both requests went straight into service: the queue never held
    // a waiting request, so peak occupancy is zero by construction.
    EXPECT_EQ(port.stats().peak_queue, 0u);
    EXPECT_EQ(port.stats().busy_ticks, 20u);
    EXPECT_DOUBLE_EQ(
        units::busyFraction(port.stats().busy_ticks, 10, port.width()),
        1.0);
}

TEST(SimPort, SameTickRequestsGrantInSubmissionOrder)
{
    // Deterministic FIFO arbitration: four same-tick submissions to a
    // width-1 port complete in exactly submission order, with the
    // delayed three counted as conflict stalls. No seed, no hash
    // order, nothing to vary between runs or hosts.
    EventQueue eq;
    ClosureSink fns(eq);
    Port port(eq, "p0", /*width=*/1, /*buffer_limit=*/8);

    RecordingSink sink(eq);
    fns.at(0, [&]() {
        for (int id = 0; id < 4; ++id)
            port.submit(10, sink(id));
    });
    eq.run();
    const auto order = sink.ids();
    const auto completed = sink.ticks;

    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3}));
    EXPECT_EQ(completed, (std::vector<Tick>{10, 20, 30, 40}));
    EXPECT_EQ(port.stats().conflict_stalls, 3u);
    // Waits of 10, 20 and 30 ticks for requests 1..3.
    EXPECT_EQ(port.stats().stall_ticks, 60u);
    EXPECT_EQ(port.stats().peak_queue, 3u);
    EXPECT_GT(port.meanQueue(40), 0.0);
}

TEST(SimPort, BoundedBufferBackpressuresFifo)
{
    EventQueue eq;
    ClosureSink fns(eq);
    // Width 1, buffer 1: the third same-tick submission finds the
    // buffer full and waits in the overflow queue.
    Port port(eq, "p0", /*width=*/1, /*buffer_limit=*/1);

    RecordingSink sink(eq);
    fns.at(0, [&]() {
        for (int id = 0; id < 3; ++id)
            port.submit(5, sink(id));
    });
    eq.run();
    const auto order = sink.ids();

    // Backpressure must not reorder: service is submission order even
    // across the buffer/overflow boundary.
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2}));
    EXPECT_EQ(port.stats().buffer_overflows, 1u);
    EXPECT_EQ(port.stats().served, 3u);
    EXPECT_EQ(eq.now(), 15u);
}

TEST(SimPort, WaitingFifoWrapsAndGrowsWithoutReordering)
{
    // Width 1, buffer 2, 10-tick services. Seven submissions at t=0
    // queue six requests; by t=35 three have started, so the next
    // seven submissions wrap around the waiting FIFO's storage and
    // outgrow it while wrapped. Service must stay submission order
    // across the buffer/overflow boundary, the wrap and the growth,
    // and every statistic must come out exact.
    EventQueue eq;
    ClosureSink fns(eq);
    Port port(eq, "p0", /*width=*/1, /*buffer_limit=*/2);

    RecordingSink sink(eq);
    const auto submitIds = [&](int first, int last) {
        for (int id = first; id <= last; ++id)
            port.submit(10, sink(id));
    };
    fns.at(0, [&]() { submitIds(0, 6); });
    fns.at(35, [&]() { submitIds(7, 13); });
    eq.run();
    const auto order = sink.ids();

    std::vector<int> expected;
    for (int id = 0; id <= 13; ++id)
        expected.push_back(id);
    EXPECT_EQ(order, expected);
    EXPECT_EQ(eq.now(), 140u);
    EXPECT_EQ(port.queued(), 0u);
    EXPECT_EQ(port.stats().served, 14u);
    // Every submission after the buffer's two slots filled: ids 3..6
    // at t=0 and all of ids 7..13 at t=35.
    EXPECT_EQ(port.stats().buffer_overflows, 11u);
    // Ten waiting right after the t=35 burst.
    EXPECT_EQ(port.stats().peak_queue, 10u);
    EXPECT_EQ(port.stats().conflict_stalls, 13u);
    // Id k starts at 10k: waits 10+20+...+60 for ids 1..6 and
    // 35+45+...+95 for ids 7..13.
    EXPECT_EQ(port.stats().stall_ticks, 210u + 455u);
    // Queue length over time integrates to the same 665 ticks.
    EXPECT_DOUBLE_EQ(port.meanQueue(140), 665.0 / 140.0);
}

TEST(SimPort, FireAndForgetSubmissionCompletes)
{
    EventQueue eq;
    ClosureSink fns(eq);
    Port port(eq, "p0", 1, 4);
    fns.at(0, [&]() { port.submit(7, {}); });
    eq.run();
    EXPECT_EQ(port.stats().served, 1u);
    EXPECT_EQ(eq.now(), 7u);
    EXPECT_EQ(port.inService(), 0u);
}

TEST(SimPort, TaggedCompletionsReportInServiceOrder)
{
    // A width-1 port behind a one-token pool that another port holds
    // first: every request waits, the buffer overflows, and the sink
    // still hears each tag unchanged, in submission order, at the
    // exact tick its service ends. The null-sink request in the
    // middle reports to nobody but is served and charged like the
    // rest.
    EventQueue eq;
    ClosureSink fns(eq);
    TokenPool tokens(1);
    Port holder(eq, "holder", 1, 8, &tokens);
    Port port(eq, "p0", /*width=*/1, /*buffer_limit=*/2, &tokens);

    RecordingSink sink(eq);
    fns.at(0, [&]() {
        holder.submit(4, {});
        port.submit(10, sink(7));
        port.submit(10, sink(3));
        port.submit(10, {});
        port.submit(10, sink(9));
    });
    eq.run();

    EXPECT_EQ(sink.tags, (std::vector<std::uint64_t>{7, 3, 9}));
    EXPECT_EQ(sink.ticks, (std::vector<Tick>{14, 24, 44}));
    EXPECT_EQ(port.stats().served, 4u);
    EXPECT_EQ(port.stats().busy_ticks, 40u);
    EXPECT_EQ(port.stats().buffer_overflows, 2u);
    EXPECT_EQ(port.stats().conflict_stalls, 4u);
    EXPECT_EQ(port.stats().stall_ticks, 4u + 14u + 24u + 34u);
    EXPECT_EQ(holder.stats().served, 1u);
    EXPECT_EQ(tokens.inUse(), 0u);
    EXPECT_EQ(port.inService(), 0u);
}

TEST(SimPort, UtilizationAndMeanQueueGuardZeroMakespan)
{
    // A port that never ran reports 0, not a division by zero.
    EventQueue eq;
    Port port(eq, "p0", 3, 4);
    EXPECT_DOUBLE_EQ(
        units::busyFraction(port.stats().busy_ticks, 0, port.width()),
        0.0);
    EXPECT_DOUBLE_EQ(port.meanQueue(0), 0.0);
}

TEST(SimPortDeath, ZeroWidthOrBufferIsFatal)
{
    EventQueue eq;
    EXPECT_DEATH(Port(eq, "p0", 0, 4), "nonzero width");
    EXPECT_DEATH(Port(eq, "p0", 1, 0), "nonzero buffer limit");
    EXPECT_DEATH(TokenPool(0), "nonzero capacity");
}

TEST(SimTokenPool, ParkedPortsWakeInParkingOrder)
{
    // Two width-1 ports sharing one token: grants must alternate in
    // parking order (a, b, a, b), never by pointer or hash order.
    EventQueue eq;
    ClosureSink fns(eq);
    TokenPool tokens(1);
    Port a(eq, "a", 1, 8, &tokens);
    Port b(eq, "b", 1, 8, &tokens);

    const std::string names[] = {"a0", "b0", "a1", "b1"};
    RecordingSink sink(eq);
    fns.at(0, [&]() {
        a.submit(5, sink(0));
        b.submit(5, sink(1));
        a.submit(5, sink(2));
        b.submit(5, sink(3));
    });
    eq.run();
    std::vector<std::string> order;
    for (const auto tag : sink.tags)
        order.push_back(names[tag]);

    EXPECT_EQ(order, (std::vector<std::string>{"a0", "b0", "a1",
                                               "b1"}));
    // One token fully serializes the four services.
    EXPECT_EQ(eq.now(), 20u);
    EXPECT_EQ(tokens.inUse(), 0u);
    // The pool, not the ports' own width, caused the waits.
    EXPECT_EQ(a.stats().conflict_stalls + b.stats().conflict_stalls,
              3u);
}

TEST(SimTokenPool, RepeatedWakesKeepParkingOrder)
{
    // Three ports re-park after every grant, so the pool wakes and
    // re-parks many times over: the rotation a, b, c must hold for
    // every round, however the woken entries are dropped.
    EventQueue eq;
    ClosureSink fns(eq);
    TokenPool tokens(1);
    Port a(eq, "a", 1, 8, &tokens);
    Port b(eq, "b", 1, 8, &tokens);
    Port c(eq, "c", 1, 8, &tokens);

    RecordingSink sink(eq);
    constexpr int kRounds = 6;
    fns.at(0, [&]() {
        for (int round = 0; round < kRounds; ++round) {
            a.submit(5, sink(3 * round));
            b.submit(5, sink(3 * round + 1));
            c.submit(5, sink(3 * round + 2));
        }
    });
    eq.run();
    std::vector<int> expected;
    for (int id = 0; id < 3 * kRounds; ++id)
        expected.push_back(id);
    EXPECT_EQ(sink.ids(), expected);
    EXPECT_EQ(eq.now(), Tick{5 * 3 * kRounds});
    EXPECT_EQ(tokens.inUse(), 0u);
}

TEST(SimPort, PeakInServiceCountsServersHeldAtOnce)
{
    // Three overlapping requests on four servers hold three at once;
    // later ones that overlap fewer never raise the peak, and a burst
    // past the width stops at the width while the rest queue.
    EventQueue eq;
    ClosureSink fns(eq);
    Port port(eq, "p0", /*width=*/4, /*buffer_limit=*/8);

    RecordingSink sink(eq);
    fns.at(0, [&]() {
        for (int id = 0; id < 3; ++id)
            port.submit(10, sink(id));
    });
    fns.at(20, [&]() {
        port.submit(10, sink(3));
        port.submit(10, sink(4));
    });
    fns.at(40, [&]() { port.submit(10, sink(5)); });
    eq.run();
    EXPECT_EQ(port.stats().peak_in_service, 3u);
    EXPECT_EQ(port.stats().peak_queue, 0u);

    fns.at(60, [&]() {
        for (int id = 6; id < 12; ++id)
            port.submit(10, sink(id));
    });
    eq.run();
    EXPECT_EQ(port.stats().peak_in_service, 4u);
    EXPECT_EQ(port.stats().peak_queue, 2u);
    EXPECT_EQ(sink.tags.size(), 12u);
}

TEST(SimBankedMemory, AddressesHashToBanksByModulo)
{
    EventQueue eq;
    ClosureSink fns(eq);
    BankedMemoryConfig config;
    config.banks = 4;
    BankedMemory memory(eq, config);
    EXPECT_EQ(memory.banks(), 4u);
    EXPECT_EQ(memory.bankOf(0), 0u);
    EXPECT_EQ(memory.bankOf(5), 1u);
    EXPECT_EQ(memory.bankOf(7), 3u);

    fns.at(0, [&]() { memory.request(6, 1, {}); });
    eq.run();
    EXPECT_EQ(memory.bank(2).stats().requests, 1u);
    EXPECT_EQ(memory.stats().requests, 1u);
    EXPECT_EQ(memory.stats().served, 1u);
}

TEST(SimBankedMemory, ServiceTimeIsPerRequestPlusPerLine)
{
    EventQueue eq;
    ClosureSink fns(eq);
    BankedMemoryConfig config;
    config.banks = 2;
    config.cycles_per_request = 10;
    config.cycles_per_line = 3;
    BankedMemory memory(eq, config);
    fns.at(0, [&]() { memory.request(1, 4, {}); });
    eq.run();
    EXPECT_EQ(eq.now(), 22u);  // 10 + 3 * 4
    EXPECT_EQ(memory.stats().busy_ticks, 22u);
}

TEST(SimBankedMemory, ConflictsAreZeroWithoutContention)
{
    // Distinct banks, enough ports: same-tick requests all start
    // immediately — the conflict-stall column is structurally zero.
    EventQueue eq;
    ClosureSink fns(eq);
    BankedMemoryConfig config;
    config.banks = 4;
    config.ports = 4;
    config.cycles_per_request = 10;
    BankedMemory memory(eq, config);
    fns.at(0, [&]() {
        for (std::uint64_t address = 0; address < 4; ++address)
            memory.request(address, 1, {});
    });
    eq.run();
    EXPECT_EQ(eq.now(), 10u);
    EXPECT_EQ(memory.stats().conflict_stalls, 0u);
    EXPECT_EQ(memory.stats().stall_ticks, 0u);
    EXPECT_EQ(memory.stats().peak_queue, 0u);
    EXPECT_DOUBLE_EQ(units::busyFraction(memory.stats().busy_ticks, 10,
                                         memory.banks()),
                     1.0);
}

TEST(SimBankedMemory, SingleBankSinglePortSerializesAndCounts)
{
    // The conflict storm: everything lands in bank 0 behind one
    // port. Makespan quadruples and every delayed request is counted.
    EventQueue eq;
    ClosureSink fns(eq);
    BankedMemoryConfig config;
    config.banks = 1;
    config.ports = 1;
    config.cycles_per_request = 10;
    BankedMemory memory(eq, config);
    fns.at(0, [&]() {
        for (std::uint64_t address = 0; address < 4; ++address)
            memory.request(address, 1, {});
    });
    eq.run();
    EXPECT_EQ(eq.now(), 40u);
    EXPECT_EQ(memory.stats().conflict_stalls, 3u);
    EXPECT_EQ(memory.stats().stall_ticks, 60u);  // 10 + 20 + 30
    EXPECT_EQ(memory.stats().peak_queue, 3u);
    EXPECT_GT(memory.meanQueue(40), 0.0);
    EXPECT_EQ(memory.stats().buffer_overflows, 0u);
}

TEST(SimBankedMemory, SharedPortsCapCrossBankParallelism)
{
    // Eight banks but two ports: same-tick requests to eight distinct
    // banks still issue at most two at a time.
    EventQueue eq;
    ClosureSink fns(eq);
    BankedMemoryConfig config;
    config.banks = 8;
    config.ports = 2;
    config.cycles_per_request = 10;
    BankedMemory memory(eq, config);
    fns.at(0, [&]() {
        for (std::uint64_t address = 0; address < 8; ++address)
            memory.request(address, 1, {});
    });
    eq.run();
    EXPECT_EQ(eq.now(), 40u);  // ceil(8 / 2) waves of 10
    EXPECT_EQ(memory.stats().conflict_stalls, 6u);
    EXPECT_EQ(memory.stats().served, 8u);
    // Six requests wait at once, but each in its own bank: the
    // deepest single-bank queue is one, not the sum over banks.
    EXPECT_EQ(memory.stats().peak_queue, 1u);
}

TEST(SimBankedMemory, FullBankBufferBackpressures)
{
    EventQueue eq;
    ClosureSink fns(eq);
    BankedMemoryConfig config;
    config.banks = 1;
    config.ports = 1;
    config.buffer = 2;
    config.cycles_per_request = 5;
    BankedMemory memory(eq, config);
    RecordingSink sink(eq);
    fns.at(0, [&]() {
        for (int id = 0; id < 5; ++id)
            memory.request(0, 1, sink(id));
    });
    eq.run();
    const auto order = sink.ids();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    // In service + 2 buffered; the remaining 2 overflowed.
    EXPECT_EQ(memory.stats().buffer_overflows, 2u);
    EXPECT_EQ(memory.stats().served, 5u);
}

TEST(SimBankedMemory, ReportsGuardZeroMakespan)
{
    EventQueue eq;
    BankedMemory memory(eq, {});
    EXPECT_DOUBLE_EQ(
        units::busyFraction(memory.stats().busy_ticks, 0, memory.banks()),
        0.0);
    EXPECT_DOUBLE_EQ(memory.meanQueue(0), 0.0);
}

TEST(SimBankedMemoryDeath, MalformedConfigIsFatal)
{
    EventQueue eq;
    BankedMemoryConfig no_banks;
    no_banks.banks = 0;
    EXPECT_DEATH(BankedMemory(eq, no_banks),
                 "at least one bank");
    BankedMemoryConfig free_service;
    free_service.cycles_per_request = 0;
    EXPECT_DEATH(BankedMemory(eq, free_service),
                 "at least one tick per request");
}

} // namespace
} // namespace sim
} // namespace qmh

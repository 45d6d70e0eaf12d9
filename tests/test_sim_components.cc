/**
 * @file
 * Resource-kernel tests: Port arbitration determinism, TokenPool
 * FIFO wake order, the waiting FIFO's order, the banked memory's
 * conflict accounting and summed stats, and the division guards on
 * every utilization and mean-queue report.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <stdexcept>
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

/**
 * Whether @p port, whose pool has one token, starts one more request
 * at once: true only when that token came back.
 */
bool
tokenIsFree(EventQueue &eq, ClosureSink &fns, Port &port)
{
    const auto before = port.stats();
    fns.after(0, [&]() { port.submit(1, {}); });
    eq.run();
    return port.stats().served == before.served + 1 &&
           port.stats().conflict_stalls == before.conflict_stalls;
}

TEST(SimPort, UncontendedRequestIsNeverAConflict)
{
    EventQueue eq;
    ClosureSink fns(eq);
    Port port(eq, "p0", /*width=*/2);

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
    // Both requests went straight into service: the queue never held
    // a waiting request, so peak occupancy is zero by construction.
    EXPECT_EQ(port.stats().peak_queue, 0u);
    EXPECT_EQ(port.stats().busy_ticks, 20u);
    EXPECT_DOUBLE_EQ(
        units::busyFraction(port.stats().busy_ticks, 10, 2),
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
    Port port(eq, "p0", /*width=*/1);

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

TEST(SimPort, WaitingFifoWrapsAndGrowsWithoutReordering)
{
    // Width 1, 10-tick services. Seven submissions at t=0 queue six
    // requests; by t=35 three have started, so the next seven
    // submissions wrap around the waiting FIFO's storage and outgrow
    // it while wrapped. Service must stay submission order across
    // the wrap and the growth, and every statistic must come out
    // exact.
    EventQueue eq;
    ClosureSink fns(eq);
    Port port(eq, "p0", /*width=*/1);

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
    EXPECT_EQ(port.stats().requests, 14u);
    EXPECT_EQ(port.stats().served, 14u);
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
    Port port(eq, "p0", 1);
    fns.at(0, [&]() { port.submit(7, {}); });
    eq.run();
    EXPECT_EQ(port.stats().served, 1u);
    EXPECT_EQ(eq.now(), 7u);
    EXPECT_EQ(port.stats().requests, 1u);
}

TEST(SimPort, TaggedCompletionsReportInServiceOrder)
{
    // A width-1 port behind a one-token pool that another port holds
    // first: every request waits, and the sink still hears each tag
    // unchanged, in submission order, at the exact tick its service
    // ends. The null-sink request in the middle reports to nobody but
    // is served and charged like the rest.
    EventQueue eq;
    ClosureSink fns(eq);
    TokenPool tokens(1);
    Port holder(eq, "holder", 1, &tokens);
    Port port(eq, "p0", /*width=*/1, &tokens);

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
    EXPECT_EQ(port.stats().conflict_stalls, 4u);
    EXPECT_EQ(port.stats().stall_ticks, 4u + 14u + 24u + 34u);
    EXPECT_EQ(port.stats().requests, 4u);
    EXPECT_EQ(holder.stats().served, 1u);
    EXPECT_TRUE(tokenIsFree(eq, fns, port));
}

TEST(SimPort, UtilizationAndMeanQueueGuardZeroMakespan)
{
    // A port that never ran reports 0, not a division by zero.
    EventQueue eq;
    Port port(eq, "p0", 3);
    EXPECT_DOUBLE_EQ(
        units::busyFraction(port.stats().busy_ticks, 0, 3),
        0.0);
    EXPECT_DOUBLE_EQ(port.meanQueue(0), 0.0);
}

TEST(SimPortDeath, ZeroWidthOrBufferIsFatal)
{
    // qmh_fatal throws: a malformed port or pool fails its caller.
    EventQueue eq;
    EXPECT_THROW(Port(eq, "p0", 0), std::invalid_argument);
    EXPECT_THROW(TokenPool(0), std::invalid_argument);
}

TEST(SimTokenPool, ParkedPortsWakeInParkingOrder)
{
    // Two width-1 ports sharing one token: grants must alternate in
    // parking order (a, b, a, b), never by pointer or hash order.
    EventQueue eq;
    ClosureSink fns(eq);
    TokenPool tokens(1);
    Port a(eq, "a", 1, &tokens);
    Port b(eq, "b", 1, &tokens);

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
    // The pool, not the ports' own width, caused the waits.
    EXPECT_EQ(a.stats().conflict_stalls + b.stats().conflict_stalls,
              3u);
    EXPECT_TRUE(tokenIsFree(eq, fns, b));
}

TEST(SimTokenPool, RepeatedWakesKeepParkingOrder)
{
    // Three ports re-park after every grant, so the pool wakes and
    // re-parks many times over: the rotation a, b, c must hold for
    // every round, however the woken entries are dropped.
    EventQueue eq;
    ClosureSink fns(eq);
    TokenPool tokens(1);
    Port a(eq, "a", 1, &tokens);
    Port b(eq, "b", 1, &tokens);
    Port c(eq, "c", 1, &tokens);

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
    EXPECT_TRUE(tokenIsFree(eq, fns, c));
}

TEST(SimPort, PeakInServiceCountsServersHeldAtOnce)
{
    // Three overlapping requests on four servers hold three at once;
    // later ones that overlap fewer never raise the peak, and a burst
    // past the width stops at the width while the rest queue.
    EventQueue eq;
    ClosureSink fns(eq);
    Port port(eq, "p0", /*width=*/4);

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

    // 6 and 2 share bank 2, so one waits for the other; 7 is
    // bank 3's and waits for no one.
    fns.at(0, [&]() {
        memory.request(6, {});
        memory.request(2, {});
        memory.request(7, {});
    });
    eq.run();
    EXPECT_EQ(memory.stats().requests, 3u);
    EXPECT_EQ(memory.stats().served, 3u);
    EXPECT_EQ(memory.stats().conflict_stalls, 1u);
}

TEST(SimBankedMemory, EveryRequestHoldsItsBankForTheServiceTicks)
{
    // One service count per request: two requests to one bank end at
    // 7 and 14, and the bank is charged 7 ticks for each.
    EventQueue eq;
    ClosureSink fns(eq);
    BankedMemoryConfig config;
    config.banks = 2;
    config.service = 7;
    BankedMemory memory(eq, config);
    RecordingSink sink(eq);
    fns.at(0, [&]() {
        memory.request(1, sink(0));
        memory.request(3, sink(1));
    });
    eq.run();
    EXPECT_EQ(sink.ticks, (std::vector<Tick>{7, 14}));
    EXPECT_EQ(memory.stats().busy_ticks, 14u);
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
    config.service = 10;
    BankedMemory memory(eq, config);
    fns.at(0, [&]() {
        for (std::uint64_t address = 0; address < 4; ++address)
            memory.request(address, {});
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
    config.service = 10;
    BankedMemory memory(eq, config);
    fns.at(0, [&]() {
        for (std::uint64_t address = 0; address < 4; ++address)
            memory.request(address, {});
    });
    eq.run();
    EXPECT_EQ(eq.now(), 40u);
    EXPECT_EQ(memory.stats().conflict_stalls, 3u);
    EXPECT_EQ(memory.stats().stall_ticks, 60u);  // 10 + 20 + 30
    EXPECT_EQ(memory.stats().peak_queue, 3u);
    EXPECT_GT(memory.meanQueue(40), 0.0);
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
    config.service = 10;
    BankedMemory memory(eq, config);
    fns.at(0, [&]() {
        for (std::uint64_t address = 0; address < 8; ++address)
            memory.request(address, {});
    });
    eq.run();
    EXPECT_EQ(eq.now(), 40u);  // ceil(8 / 2) waves of 10
    EXPECT_EQ(memory.stats().conflict_stalls, 6u);
    EXPECT_EQ(memory.stats().served, 8u);
    // Six requests wait at once, but each in its own bank: the
    // deepest single-bank queue is one, not the sum over banks.
    EXPECT_EQ(memory.stats().peak_queue, 1u);
}

TEST(SimBankedMemory, OneBankServesRequestsInSubmissionOrder)
{
    // Five same-tick requests to one bank wait in its FIFO and are
    // served in submission order, one every 5 ticks.
    EventQueue eq;
    ClosureSink fns(eq);
    BankedMemoryConfig config;
    config.banks = 1;
    config.ports = 1;
    config.service = 5;
    BankedMemory memory(eq, config);
    RecordingSink sink(eq);
    fns.at(0, [&]() {
        for (int id = 0; id < 5; ++id)
            memory.request(0, sink(id));
    });
    eq.run();
    const auto order = sink.ids();
    EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 4}));
    EXPECT_EQ(sink.ticks, (std::vector<Tick>{5, 10, 15, 20, 25}));
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
    // qmh_fatal throws: a malformed memory fails its caller.
    EventQueue eq;
    BankedMemoryConfig no_banks;
    no_banks.banks = 0;
    EXPECT_THROW(BankedMemory(eq, no_banks), std::invalid_argument);
    BankedMemoryConfig free_service;
    free_service.service = 0;
    EXPECT_THROW(BankedMemory(eq, free_service), std::invalid_argument);
}

} // namespace
} // namespace sim
} // namespace qmh

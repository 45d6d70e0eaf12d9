#include "engine.hh"

#include <algorithm>
#include <limits>
#include <utility>
#include <vector>

#include "cache/cache_sim.hh"
#include "common/logging.hh"
#include "common/units.hh"
#include "net/transfer.hh"
#include "sim/banked_memory.hh"
#include "sim/event_queue.hh"
#include "sim/port.hh"

namespace qmh {
namespace trace {

namespace {

/**
 * Per-run issue pipeline state, and the sink of every event and
 * component request of the run. Bundling it behind one pointer keeps
 * every event and every request down to {context, tag}, and lets the
 * per-gate scratch vectors (missing operands, eviction victims, the
 * claimed front) reuse their capacity across all gates of the run.
 *
 * A tag is `gate index << 2 | stage` (Stage below).
 */
struct EngineCtx final : sim::CompletionSink
{
    enum Stage : std::uint64_t {
        Bank = 0,     ///< the bank served a fill's line: start the wire
        Wire = 1,     ///< the wire delivered it: count down operands
        Compute = 2,  ///< the gate finished computing: retire it
        Start = 3     ///< run start: issue the first ready front
    };

    static std::uint64_t
    tagOf(std::uint32_t index, Stage stage)
    {
        return std::uint64_t{index} << 2 | stage;
    }

    EngineCtx(const circuit::Program &program, sim::EventQueue &eq,
              sim::Port &wire, sim::BankedMemory &memory,
              cache::CacheState &cache,
              sched::IncrementalScheduler &scheduler, Tick step1,
              Tick per_transfer)
        : program(program), eq(eq), wire(wire), memory(memory),
          cache(cache), scheduler(scheduler), step1(step1),
          per_transfer(per_transfer), claims(program.size()),
          waiting(program.size(), 0)
    {
        begin_times.reserve(program.size());
        end_times.reserve(program.size());
    }

    const circuit::Program &program;
    sim::EventQueue &eq;
    sim::Port &wire;
    sim::BankedMemory &memory;
    cache::CacheState &cache;
    sched::IncrementalScheduler &scheduler;
    Tick step1;
    Tick per_transfer;

    // Each issued gate's claim (its block, for the retire), by index.
    std::vector<sched::IssueClaim> claims;
    // Transfers still outstanding before a claimed gate may compute.
    std::vector<std::uint32_t> waiting;
    std::uint64_t writebacks = 0;
    // Total block-time of every computed gate.
    Tick busy = 0;

    // Compute begin/end instants in event-execution order (each
    // stream is non-decreasing because simulated time only moves
    // forward), recorded for the peak-concurrency merge below —
    // zero-duration gates occupy no block time and are skipped.
    std::vector<Tick> begin_times;
    std::vector<Tick> end_times;

    // Reused per-gate scratch.
    std::vector<sched::IssueClaim> front;
    std::vector<circuit::QubitId> missing;
    std::vector<circuit::QubitId> evicted;

    Tick
    duration(std::uint32_t index) const
    {
        return static_cast<Tick>(claims[index].latency) * step1;
    }

    void
    beginCompute(std::uint32_t index)
    {
        busy += duration(index);
        if (duration(index) > 0)
            begin_times.push_back(eq.now());
        eq.scheduleAfter(duration(index), {this, tagOf(index, Compute)});
    }

    void
    complete(std::uint64_t tag) override
    {
        const auto index = static_cast<std::uint32_t>(tag >> 2);
        switch (static_cast<Stage>(tag & 3)) {
          case Bank:
            wire.submit(per_transfer, {this, tagOf(index, Wire)});
            return;
          case Wire:
            if (--waiting[index] == 0)
                beginCompute(index);
            return;
          case Compute:
            if (duration(index) > 0)
                end_times.push_back(eq.now());
            scheduler.complete(claims[index]);
            pump();
            return;
          case Start:
            pump();
            return;
        }
    }

    /**
     * Peak concurrently-computing gates: one merge over the two
     * sorted time streams, retiring ends before starts at the same
     * instant — the same tie order (and therefore the same value) as
     * delta-counting a fully sorted event list, without the sort.
     */
    std::uint32_t
    peakInFlight() const
    {
        std::uint32_t peak = 0;
        std::uint32_t current = 0;
        std::size_t b = 0;
        std::size_t e = 0;
        while (b < begin_times.size()) {
            const Tick t = e < end_times.size() &&
                                   end_times[e] <= begin_times[b]
                               ? end_times[e]
                               : begin_times[b];
            while (e < end_times.size() && end_times[e] == t) {
                --current;
                ++e;
            }
            while (b < begin_times.size() && begin_times[b] == t) {
                ++current;
                ++b;
            }
            peak = std::max(peak, current);
        }
        return peak;
    }

    void
    issue(const sched::IssueClaim &claimed)
    {
        const auto index = claimed.index;
        claims[index] = claimed;
        const auto &inst = program[index];
        // Residency first: the missing set is what this issue pulls
        // through the memory banks and the transfer network.
        // access() then counts hits/misses and brings the missing
        // qubits in, so a later gate touching an in-flight qubit hits
        // (the fetch is already on the wire — MSHR-style merging).
        cache.missingOperandsInto(inst, missing);
        cache.accessInto(inst, evicted);
        // Evicted qubits write back through their owning bank:
        // fire-and-forget traffic that still occupies bank time and
        // competes with fills for ports and bank queues.
        for (const auto victim : evicted) {
            ++writebacks;
            memory.request(victim.value(), {});
        }
        if (missing.empty()) {
            beginCompute(index);
            return;
        }
        waiting[index] = static_cast<std::uint32_t>(missing.size());
        // Fill: the owning bank serves the line, then the wire
        // carries it to level 1.
        for (const auto qubit : missing)
            memory.request(qubit.value(), {this, tagOf(index, Bank)});
    }

    void
    pump()
    {
        // Batch-claim the whole ready front, then issue the claims
        // one at a time in claim order — the same decision sequence
        // (and therefore the same event order) as claiming one gate
        // per pop, without re-entering the scheduler per gate.
        front.clear();
        scheduler.claimBatch(front);
        for (const auto &claimed : front)
            issue(claimed);
    }
};

} // namespace

PreparedWorkload::PreparedWorkload(circuit::Workload workload,
                                   const sched::LatencyModel &latency,
                                   const std::vector<unsigned> &blocks)
    : _workload(std::move(workload)), _dag(_workload.program),
      _plan(_workload.program, _dag, latency)
{
    if (!_workload.cacheable.empty() &&
        _workload.cacheable.size() !=
            static_cast<std::size_t>(_workload.program.qubitCount()))
        qmh_fatal("trace: cacheable mask size ",
                  _workload.cacheable.size(), " != qubit count ",
                  _workload.program.qubitCount());
    // Flat baseline: the identical issue policy with every qubit at
    // level 2 — no cache, no transfers — so it depends only on the
    // plan and the block count.
    for (const auto count : blocks)
        if (!flatMakespan(count))
            _flat.emplace_back(count,
                               sched::listSchedule(_plan, count).makespan);
}

std::optional<std::uint64_t>
PreparedWorkload::flatMakespan(unsigned blocks) const
{
    for (const auto &[count, makespan] : _flat)
        if (count == blocks)
            return makespan;
    return std::nullopt;
}

std::optional<TraceResult>
atTransfers(const TraceResult &run, unsigned transfers)
{
    if (transfers < run.exact_transfers_lo ||
        transfers > run.exact_transfers_hi)
        return std::nullopt;
    TraceResult result = run;
    result.transfer_utilization = units::busyFraction(
        run.channel_busy_ticks, run.makespan_ticks, transfers);
    return result;
}

TraceResult
runTrace(const circuit::Workload &workload, const TraceConfig &config,
         const iontrap::Params &params)
{
    return runTrace(PreparedWorkload(workload, config.latency,
                                     {config.blocks}),
                    config, params);
}

TraceResult
runTrace(const PreparedWorkload &prepared, const TraceConfig &config,
         const iontrap::Params &params)
{
    const auto &workload = prepared.workload();
    const auto &program = workload.program;
    if (config.capacity == 0)
        qmh_fatal("trace: cache capacity must be nonzero");
    if (config.transfers == 0)
        qmh_fatal("trace: need at least one transfer channel");
    if (config.latency != prepared.plan().latencyModel())
        qmh_panic("trace: config latency differs from the latency "
                  "model the workload was prepared under");

    const auto m = static_cast<std::uint32_t>(program.size());
    TraceResult result;
    result.instructions = m;
    // An empty program never touches a channel.
    result.exact_transfers_lo = 1;
    result.exact_transfers_hi = std::numeric_limits<unsigned>::max();

    const auto code = ecc::Code::byKind(config.code);
    auto flat_makespan = prepared.flatMakespan(config.blocks);
    if (!flat_makespan)
        flat_makespan =
            sched::listSchedule(prepared.plan(), config.blocks).makespan;
    result.baseline_s = static_cast<double>(*flat_makespan) *
                        code.gateStepTime(2, params);
    if (m == 0)
        return result;

    // Tick-resolution costs. Per-step rounding keeps every gate's
    // duration an exact multiple of one step.
    const Tick step1 =
        units::secondsToTicks(code.gateStepTime(1, params));
    const net::TransferNetwork net(params);
    const Tick per_transfer =
        units::secondsToTicks(net.level2To1ChannelTime(code));

    sim::EventQueue eq;
    // The counted code-transfer channels: one server per channel.
    sim::Port wire(eq, "wire", config.transfers);
    // The bank holds the line for the transfer latency (never zero: a
    // bank request charges real time) plus the per-line ticks before
    // the wire takes over.
    sim::BankedMemory memory(
        eq, {.banks = config.mem_banks,
             .ports = config.mem_ports,
             .service = std::max<Tick>(1, per_transfer) +
                        config.cycles_per_line});
    cache::CacheState cache(config.capacity, workload.cacheable,
                            static_cast<std::size_t>(program.qubitCount()));
    sched::IncrementalScheduler scheduler(prepared.plan(), config.blocks);

    EngineCtx ctx(program, eq, wire, memory, cache, scheduler, step1,
                  per_transfer);

    eq.schedule(0, {&ctx, EngineCtx::tagOf(0, EngineCtx::Start)});
    eq.run();

    if (!scheduler.finished())
        qmh_panic("trace deadlock: ",
                  scheduler.totalCount() - scheduler.claimedCount(),
                  " instructions never issued (cyclic DAG?)");

    const Tick makespan = eq.now();
    result.makespan_s = units::ticksToSeconds(makespan);
    result.speedup = result.makespan_s > 0.0
                         ? result.baseline_s / result.makespan_s
                         : 0.0;

    result.accesses = cache.accesses();
    result.hits = cache.hits();
    result.misses = cache.misses();
    result.evictions = cache.evictions();
    result.hit_rate = result.accesses
                          ? static_cast<double>(result.hits) /
                                static_cast<double>(result.accesses)
                          : 0.0;

    const auto &channel = wire.stats();
    result.transfer_utilization = units::busyFraction(
        channel.busy_ticks, makespan, config.transfers);
    result.channel_busy_ticks = channel.busy_ticks;
    result.makespan_ticks = makespan;
    if (channel.peak_queue == 0)
        result.exact_transfers_lo = std::max(1u, channel.peak_in_service);
    else
        result.exact_transfers_lo = result.exact_transfers_hi =
            config.transfers;

    const auto bank = memory.stats();
    result.mem_requests = bank.requests;
    result.writebacks = ctx.writebacks;
    result.bank_conflicts = bank.conflict_stalls;
    result.mem_stall_ticks = bank.stall_ticks;
    result.mem_peak_queue = bank.peak_queue;
    result.mem_mean_queue = memory.meanQueue(makespan);
    result.mem_utilization =
        units::busyFraction(bank.busy_ticks, makespan, memory.banks());

    result.blocks_used = scheduler.blocksUsed();
    result.block_utilization =
        units::busyFraction(ctx.busy, makespan, result.blocks_used);
    result.mean_in_flight = units::busyFraction(ctx.busy, makespan, 1);
    result.peak_in_flight = ctx.peakInFlight();

    result.events_executed = eq.executed();
    return result;
}

} // namespace trace
} // namespace qmh

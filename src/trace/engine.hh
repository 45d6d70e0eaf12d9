/**
 * @file
 * Trace-driven memory-hierarchy engine: one event-driven pipeline
 * from circuit to cache to transfer network.
 *
 * Where cqla::HierarchyModel gives the paper's closed-form Table-5
 * row for a whole addition, this engine executes a real logical
 * circuit instruction by instruction through the full hierarchy:
 *
 *  - the list scheduler's issue policy (sched::IncrementalScheduler,
 *    critical-path priority) maps ready instructions onto B level-1
 *    compute blocks;
 *  - every issued instruction's cacheable operands are looked up in
 *    the level-1 qubit cache (cache::CacheState, LRU); hits proceed,
 *    misses are served by the banked level-2 memory
 *    (sim::BankedMemory — the qubit hashes to a bank, a FIFO per
 *    bank, a shared port issue-width, deterministic arbitration;
 *    each request is one line) and then pull the qubit through the
 *    counted code-transfer channels (one sim::Port, a server per
 *    channel) at the Table-3 transfer latency of the configured
 *    code. Qubits evicted by a fill write back through the same
 *    banks as fire-and-forget traffic;
 *  - once all operands are resident the gate computes for its
 *    gate-step latency at the level-1 step time, then releases its
 *    block and readies its dependents.
 *
 * The flat baseline is the same schedule with every qubit held at
 * level 2 (no cache, no transfers) at the level-2 step time — the QLA
 * sea-of-qubits execution the paper compares against. One run yields
 * makespan, speedup over that baseline, hit rate, transfer-channel
 * utilization and the gates-in-flight profile (peak and mean — the
 * Fig. 2 parallelism measure at tick resolution).
 *
 * Everything a run derives from the workload alone — the DAG, the
 * scheduler's plan and the flat baseline per block count — lives in
 * an immutable PreparedWorkload, so a sweep prepares each circuit once
 * and runs every design point over it. The engine keeps no state
 * between runs: one private EventQueue per run, no caches, so
 * identical inputs give bit-identical results on any thread.
 */

#ifndef QMH_TRACE_ENGINE_HH
#define QMH_TRACE_ENGINE_HH

#include <cstdint>
#include <optional>
#include <utility>
#include <vector>

#include "circuit/dag.hh"
#include "circuit/workload.hh"
#include "common/units.hh"
#include "ecc/code.hh"
#include "iontrap/params.hh"
#include "sched/latency.hh"
#include "sched/scheduler.hh"

namespace qmh {
namespace trace {

/** Configuration of one trace run. */
struct TraceConfig
{
    ecc::CodeKind code = ecc::CodeKind::Steane713;
    /** Level-1 compute blocks (sched::unlimited_blocks = no cap). */
    unsigned blocks = 49;
    /** Parallel code-transfer channels. */
    unsigned transfers = 10;
    /** Level-1 cache capacity in logical qubits. */
    std::size_t capacity = 64;
    /** Level-2 memory banks (a qubit's fill hashes to id % banks). */
    unsigned mem_banks = 8;
    /** Concurrent memory requests in service across all banks. */
    unsigned mem_ports = 4;
    /** Accepted and ignored: every bank queue is an unbounded FIFO,
     *  so no depth changes a result (kept for callers that set it). */
    std::size_t mem_buffer = 8;
    /** Extra bank service ticks added to every request (one line). */
    Tick cycles_per_line = 0;
    /** Per-gate-kind latencies in gate-steps. */
    sched::LatencyModel latency{};

    bool operator==(const TraceConfig &) const = default;
};

/** Measured outcomes of one trace run. */
struct TraceResult
{
    double makespan_s = 0.0;
    /** Flat level-2 execution of the same schedule (no transfers). */
    double baseline_s = 0.0;
    /** baseline / makespan; 0 on an empty program. */
    double speedup = 0.0;

    std::uint64_t instructions = 0;

    // Cache residency (cacheable operand touches).
    std::uint64_t accesses = 0;
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    double hit_rate = 0.0;

    // Transfer network (one transfer per miss).
    double transfer_utilization = 0.0;

    // Banked level-2 memory (fills + writebacks; engine.cc header
    // comment explains the fill path).
    std::uint64_t mem_requests = 0;   ///< bank requests submitted
    std::uint64_t writebacks = 0;     ///< eviction writebacks among them
    /** Requests whose bank-service start was delayed by contention.
     * Structurally zero on an uncontended run. */
    std::uint64_t bank_conflicts = 0;
    Tick mem_stall_ticks = 0;         ///< total bank-queue waiting time
    std::size_t mem_peak_queue = 0;   ///< deepest single-bank queue
    double mem_mean_queue = 0.0;      ///< time-weighted mean queued
    double mem_utilization = 0.0;     ///< busy fraction of bank capacity

    // Compute blocks.
    unsigned blocks_used = 0;
    /** Compute-busy fraction of block-time: busy / (blocks * makespan). */
    double block_utilization = 0.0;
    /** Peak gates computing concurrently (Fig. 2 at tick resolution). */
    std::uint32_t peak_in_flight = 0;
    /** Time-weighted mean gates in flight. */
    double mean_in_flight = 0.0;

    std::uint64_t events_executed = 0;

    // Not row columns: what restating the result at another channel
    // count (atTransfers) needs.
    /** Channel counts [lo, hi] whose run is this one, event for
     *  event; see atTransfers. */
    unsigned exact_transfers_lo = 0;
    unsigned exact_transfers_hi = 0;
    Tick channel_busy_ticks = 0;  ///< channel-time charged busy
    Tick makespan_ticks = 0;
};

/**
 * A workload prepared for trace runs: the workload itself, its
 * dependency DAG, the scheduler's read-only plan under one latency
 * model and the flat-baseline makespan of each requested block count.
 * Immutable once built, so every point of a sweep over the same
 * circuit can share one instance across threads. Throws
 * std::invalid_argument on a malformed workload (mask size mismatch).
 */
class PreparedWorkload
{
  public:
    PreparedWorkload(circuit::Workload workload,
                     const sched::LatencyModel &latency,
                     const std::vector<unsigned> &blocks);

    const circuit::Workload &workload() const { return _workload; }
    const circuit::DependencyGraph &dag() const { return _dag; }
    const sched::SchedulePlan &plan() const { return _plan; }

    /** Flat-baseline makespan in gate-steps at @p blocks; nullopt
     *  when that block count was not prepared. */
    std::optional<std::uint64_t> flatMakespan(unsigned blocks) const;

  private:
    circuit::Workload _workload;
    circuit::DependencyGraph _dag;
    sched::SchedulePlan _plan;
    /** (blocks, flat makespan), one entry per prepared count. */
    std::vector<std::pair<unsigned, std::uint64_t>> _flat;
};

/**
 * Execute @p prepared through the hierarchy under @p config /
 * @p params. The workload's cacheable mask (empty = everything
 * cacheable) decides which qubits cross the memory hierarchy; its
 * program may come from any registered generator or a parsed
 * text-format circuit — the engine only sees the instruction DAG.
 * config.latency must be the latency model @p prepared was built
 * under. A block count without a prepared flat baseline is scheduled
 * on the spot. Throws std::invalid_argument on zero capacity or
 * channels; validate specs at the api layer for typed diagnostics.
 */
TraceResult runTrace(const PreparedWorkload &prepared,
                     const TraceConfig &config,
                     const iontrap::Params &params);

/**
 * @p run restated at @p transfers channels, or nullopt when @p run is
 * not exact there (outside [exact_transfers_lo, exact_transfers_hi]).
 *
 * A run whose channel port never queued a transfer is exact for every
 * count from its peak number of channels in service up: each transfer
 * then took a free channel the moment it was requested, which any
 * count at least that peak also offers, so the run makes the same
 * schedule() calls in the same order — every event and every result
 * field but transfer_utilization is the same. That one is recomputed
 * with units::busyFraction, the formula a direct run uses, so its
 * bytes match a direct run too. A run that queued a transfer is exact
 * only at its own count.
 */
std::optional<TraceResult> atTransfers(const TraceResult &run,
                                       unsigned transfers);

/** One-shot form: prepares @p workload for @p config, then runs it. */
TraceResult runTrace(const circuit::Workload &workload,
                     const TraceConfig &config,
                     const iontrap::Params &params);

} // namespace trace
} // namespace qmh

#endif // QMH_TRACE_ENGINE_HH

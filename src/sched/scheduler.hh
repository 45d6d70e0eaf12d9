/**
 * @file
 * Resource-constrained list scheduler.
 *
 * Maps a logical program onto B compute blocks (paper: one Toffoli, or
 * one cheaper gate, in flight per block). Critical-path priority with
 * event-driven issue. B = 0 means unlimited resources — the QLA
 * "sea-of-qubits" baseline where computation may happen anywhere.
 *
 * Two forms share one issue policy:
 *  - listSchedule() runs the whole program against an internal
 *    completion clock and returns the batch ScheduleResult;
 *  - IncrementalScheduler exposes the same claim/complete decisions
 *    one ready front at a time, so an external event loop (the trace
 *    engine's discrete-event pipeline, trace/engine.hh) can interleave
 *    issue with cache residency and transfer-network latency.
 *
 * Produces everything the evaluation needs: makespan, per-gate start
 * times and block assignments, the gates-in-flight profile (paper
 * Fig. 2), and block utilization (paper Fig. 6a).
 */

#ifndef QMH_SCHED_SCHEDULER_HH
#define QMH_SCHED_SCHEDULER_HH

#include <cstdint>
#include <queue>
#include <vector>

#include "circuit/dag.hh"
#include "circuit/program.hh"
#include "latency.hh"

namespace qmh {
namespace sched {

/** Unlimited-resources marker for listSchedule(). */
constexpr unsigned unlimited_blocks = 0;

class SchedulePlan;

/**
 * One maximal run of constant parallelism: @p in_flight gates are
 * executing over [begin, end). Segments tile the schedule span
 * contiguously, zero-valued gaps included.
 */
struct ProfileSegment
{
    std::uint64_t begin = 0;
    std::uint64_t end = 0;
    std::uint32_t in_flight = 0;

    bool operator==(const ProfileSegment &) const = default;
};

/**
 * Piecewise-constant gates-in-flight profile from per-gate start
 * times and durations, as segments over [0, @p span). O(n log n) in
 * the gate count and independent of the schedule length, so
 * huge-latency schedules (tick-resolution traces) never allocate a
 * slot per time step. Zero-duration entries (barriers) contribute
 * nothing.
 */
std::vector<ProfileSegment>
buildProfileSegments(const std::vector<std::uint64_t> &start,
                     const std::vector<std::uint64_t> &duration,
                     std::uint64_t span);

/** A computed schedule. */
struct ScheduleResult
{
    /** Total schedule length in gate-steps. */
    std::uint64_t makespan = 0;

    /** Issue time of each instruction, in gate-steps. */
    std::vector<std::uint64_t> start;

    /** Block each instruction ran on (0-based; unlimited mode packs). */
    std::vector<std::uint32_t> block;

    /** Sum over gates of their latency (block-steps of real work). */
    std::uint64_t busy_block_steps = 0;

    /** Number of blocks used (for unlimited mode: peak concurrency). */
    unsigned blocks_used = 0;

    /** Requested block count (0 = unlimited). */
    unsigned blocks_requested = 0;

    /**
     * Gates-in-flight profile as constant segments; O(gates log
     * gates), independent of the makespan. This is the parallelism
     * profile of Fig. 2 in its scalable form.
     */
    std::vector<ProfileSegment> inFlightSegments() const;

    /**
     * The same profile aggregated into windows of @p window steps
     * (mean gates in flight), matching the paper's Toffoli-slot axis.
     * Computed from segments: O(gates + makespan / window).
     */
    std::vector<double> windowedProfile(std::uint64_t window) const;

    /** Peak of the in-flight profile (from segments, O(gates log gates)). */
    std::uint32_t peakParallelism() const;

    /**
     * Fraction of block-steps doing real work:
     * busy / (blocks * makespan). Uses blocks_used when the schedule
     * was unlimited.
     */
    double utilization() const;

  private:
    friend ScheduleResult listSchedule(const SchedulePlan &, unsigned);
    friend ScheduleResult roundSchedule(const circuit::Program &,
                                        const LatencyModel &, unsigned);
    std::vector<std::uint32_t> _latency;  // per-gate, for profiles
};

/** One claimed instruction: what to run, where, and for how long. */
struct IssueClaim
{
    std::uint32_t index = 0;    ///< instruction position in the program
    std::uint32_t block = 0;    ///< compute block it occupies
    std::uint32_t latency = 0;  ///< gate-steps of compute
};

/**
 * The read-only half of the list scheduler: everything the issue
 * policy derives from (program, DAG, latency model) alone — per-gate
 * latency, the ready-set rank of each gate's critical-path priority,
 * in-degrees, the source front and the CSR successor arrays. Build it
 * once per workload; every IncrementalScheduler and listSchedule()
 * over that workload borrows it, at any block count, and pays only
 * its own per-run state. Immutable after construction, so any number
 * of threads may share one plan.
 */
class SchedulePlan
{
  public:
    SchedulePlan(const circuit::Program &program,
                 const circuit::DependencyGraph &dag,
                 const LatencyModel &latency);

    /** Instructions in the program. */
    std::uint32_t size() const { return _total; }

    /** The latency model the plan was built under. */
    const LatencyModel &latencyModel() const { return _model; }

    /** Gate-step latency of instruction @p index. */
    std::uint32_t latencyOf(std::uint32_t index) const
    {
        return _latency[index];
    }

    /** Sum over all instructions of their latency. */
    std::uint64_t busyBlockSteps() const { return _busy_block_steps; }

  private:
    friend class IncrementalScheduler;

    std::uint32_t _total = 0;
    LatencyModel _model;
    std::uint64_t _busy_block_steps = 0;
    std::vector<std::uint32_t> _latency;
    std::vector<std::int32_t> _in_degree;

    // Successor adjacency in compressed-sparse-row form, copied once
    // from the DAG so claim/complete walk contiguous memory.
    std::vector<std::uint32_t> _succ_offset;  // size _total + 1
    std::vector<std::uint32_t> _succ;

    // Ready-set rank: any monotone descending mapping of the
    // critical-path priority (longest weighted path to any sink);
    // smaller = higher priority.
    std::vector<std::uint32_t> _rank;
    // The in-degree-zero instructions as an already heap-ordered
    // ready set, so a run starts with one copy.
    std::vector<std::uint64_t> _sources;
};

/**
 * The list scheduler's issue policy in incremental form. The caller
 * owns time: claimBatch() hands out the ready instructions, highest
 * priority first, while blocks are free; complete() retires one and
 * readies its dependents. Driving claim-all /
 * advance-to-next-completion / complete-in-(finish, index)-order
 * reproduces listSchedule() exactly (the batch function is
 * implemented on this class); an event-driven caller may instead hold
 * a claim through arbitrary stalls (operand fetch, transfer-network
 * queueing) before completing it.
 */
class IncrementalScheduler
{
  public:
    /** Schedule onto @p blocks blocks; borrows @p plan, which must
     *  outlive the scheduler. */
    IncrementalScheduler(const SchedulePlan &plan, unsigned blocks);
    IncrementalScheduler(SchedulePlan &&, unsigned) = delete;

    /**
     * Claim every currently issuable instruction — the whole ready
     * front, highest priority first, program order within a priority,
     * bounded by free blocks in capped mode — allocating each a block
     * and appending it to @p out. Claims never ready new instructions
     * (only complete() does), so one call issues everything issuable
     * now. Returns the number claimed (0: nothing ready, or every
     * block busy).
     */
    std::uint32_t claimBatch(std::vector<IssueClaim> &out);

    /** Retire a claim: frees its block and readies its dependents. */
    void complete(const IssueClaim &done);

    /** Instructions in the program. */
    std::uint32_t totalCount() const { return _plan.size(); }

    /** Instructions claimed so far. */
    std::uint32_t claimedCount() const { return _claimed; }

    /** True once every instruction has been claimed and completed. */
    bool finished() const { return _completed == _plan.size(); }

    /**
     * Blocks in use by the schedule so far: the requested count in
     * capped mode, the peak concurrency in unlimited mode (equals
     * ScheduleResult::blocks_used after the final completion).
     */
    unsigned blocksUsed() const;

    /** Gate-step latency of instruction @p index. */
    std::uint32_t latencyOf(std::uint32_t index) const
    {
        return _plan.latencyOf(index);
    }

  private:
    void pushReady(std::uint32_t index);
    std::uint32_t popReady();
    std::uint32_t allocBlock();
    void freeBlock(std::uint32_t block);

    const SchedulePlan &_plan;
    std::uint32_t _claimed = 0;
    std::uint32_t _completed = 0;
    std::uint32_t _in_flight = 0;
    unsigned _blocks = 0;
    bool _capped = false;
    unsigned _next_fresh_block = 0;
    unsigned _peak_in_flight = 0;

    std::vector<std::int32_t> _remaining;

    // Ready set: one min-heap of (rank << 32 | index) keys. The packed
    // key orders by priority first and program position within a
    // priority, in a single flat vector — no per-priority bucket
    // allocation, one heap operation per push/pop.
    std::vector<std::uint64_t> _ready;

    // Free block ids as a bitmask (bit b of word w = block 64w + b is
    // free): allocation takes the lowest set bit, so assignments are
    // deterministic and dense — the same smallest-id policy as a
    // min-heap, in O(1) for any realistic block count.
    // _first_free_word is a monotone scan hint (no free bits below
    // it); _free_count gates capped-mode claims.
    std::vector<std::uint64_t> _free_words;
    std::size_t _first_free_word = 0;
    std::uint32_t _free_count = 0;
};

/**
 * Schedule @p program onto @p blocks compute blocks
 * (unlimited_blocks = no resource constraint).
 */
ScheduleResult listSchedule(const circuit::Program &program,
                            const circuit::DependencyGraph &dag,
                            const LatencyModel &latency,
                            unsigned blocks);

/** Convenience overload building the DAG internally. */
ScheduleResult listSchedule(const circuit::Program &program,
                            const LatencyModel &latency,
                            unsigned blocks);

/** The same schedule over a prepared plan (no per-call plan build). */
ScheduleResult listSchedule(const SchedulePlan &plan, unsigned blocks);

/**
 * Round-synchronous schedule: instructions issue in the program's
 * structural rounds (program-order round formation — an instruction
 * joins the open round unless it conflicts with it) with a barrier
 * between rounds: every logical gate is followed by error correction
 * and operand routing, so rounds do not overlap. A round with more
 * gates than blocks issues in ceil(count / blocks) batches.
 *
 * The unlimited-resources makespan of this schedule is the
 * round-structural critical path the paper's QLA baseline executes
 * (Fig. 2's ~20-25 Toffoli slots for the 64-bit adder);
 * listSchedule() is the more aggressive overlapped mode used for
 * ablation studies.
 */
ScheduleResult roundSchedule(const circuit::Program &program,
                             const LatencyModel &latency,
                             unsigned blocks);

} // namespace sched
} // namespace qmh

#endif // QMH_SCHED_SCHEDULER_HH

/**
 * @file
 * Job-oriented experiment execution: streaming, cancellable sweeps.
 *
 * A Session turns a sweep into a job, and is the one sweep API:
 * submit() validates the specs up front (typed Outcome errors, never
 * a panic for caller mistakes) and returns a JobHandle whose points
 * fan across the worker pool while the caller observes them:
 *
 *  - progress() — points done / total, monotonic;
 *  - nextRow()/pollRow() — completed rows stream out in index order
 *    while later points are still running;
 *  - cancel() — cooperative: in-flight points finish, unclaimed
 *    points are skipped;
 *  - wait() — blocks for retirement and returns the result table
 *    (waitCounts() — the same without the rows).
 *
 * Determinism contract: each point's Random stream derives from
 * (base seed, index), so the *contiguous completed prefix* of rows —
 * which is all a cancelled job returns — is bit-identical to the same prefix of an uncancelled single-thread
 * run. How far the prefix extends past the cancellation point depends
 * on scheduling; the content of row i never does.
 *
 * Jobs share the session's pool and retire independently, but the
 * pool's queue is FIFO: a job submits up to threadCount() claim-loop
 * tasks, so a later job's tasks queue behind an earlier unfinished
 * job's (cancel() frees the pool quickly when the earlier job is
 * obsolete). A Session cancels its unfinished jobs on destruction and
 * drains its pool; handles outliving the session see a cancelled job.
 */

#ifndef QMH_API_SESSION_HH
#define QMH_API_SESSION_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <mutex>
#include <optional>
#include <vector>

#include "api/experiment.hh"
#include "api/outcome.hh"
#include "sweep/sweep.hh"

namespace qmh {
namespace api {

namespace detail {
struct JobState;
} // namespace detail

/** Snapshot of a job's execution state (all counters monotonic). */
struct JobProgress
{
    std::size_t done = 0;       ///< points completed
    std::size_t failed = 0;     ///< points that ran but failed
    std::size_t skipped = 0;    ///< points skipped by cancellation
    std::size_t total = 0;      ///< points submitted
    std::size_t streamable = 0; ///< contiguous completed prefix length
    bool cancel_requested = false;
    bool finished = false;      ///< all retired (done+failed+skipped)
};

/** Final outcome of a job: the completed-prefix table plus counters. */
struct JobResult
{
    /** Kind columns plus a trailing "seed"; rows [0, completed). */
    sweep::ResultTable table{{"spec", "seed"}};
    std::size_t completed = 0;  ///< rows in the table (prefix length)
    std::size_t executed = 0;   ///< points run, failed included
    std::size_t skipped = 0;    ///< points never run
    bool cancelled = false;
    /** First execution failure; also cancels the remaining points. */
    std::optional<Error> failure;
};

/** Non-blocking row-poll states. */
enum class RowPoll {
    Ready,    ///< a row was produced
    Pending,  ///< the next in-order row has not completed yet
    End       ///< no further row will become available
};

/**
 * Shared handle to one submitted job. Copies address the same job and
 * share one streaming cursor; every method is thread-safe.
 */
class JobHandle
{
  public:
    /** Column labels of the result table (trailing "seed" included). */
    const std::vector<std::string> &columns() const;

    /** Points submitted. */
    std::size_t totalPoints() const;

    JobProgress progress() const;

    /**
     * Request cooperative cancellation: points not yet claimed by a
     * worker are skipped, in-flight points run to completion. Safe to
     * call repeatedly and after retirement.
     */
    void cancel();

    /**
     * Next completed row in index order; blocks until it is available
     * or no further row can become one. nullopt = end of stream (all
     * streamed, or the prefix ended at a cancelled/failed point).
     */
    std::optional<std::vector<sweep::Cell>> nextRow();

    /** Non-blocking nextRow(); fills @p row only when Ready. */
    RowPoll pollRow(std::vector<sweep::Cell> &row);

    /**
     * Block until every point has retired, then return the result.
     * Idempotent: the streaming cursor is not consumed and repeated
     * calls return the same table.
     */
    JobResult wait();

    /**
     * wait() without the rows: the same counters and failure over a
     * table holding only the columns, for a caller that streamed the
     * rows it needs and would otherwise pay for a copy of each.
     */
    JobResult waitCounts();

  private:
    friend class Session;

    /** wait(), copying the completed rows only when @p rows. */
    JobResult settle(bool rows);

    explicit JobHandle(std::shared_ptr<detail::JobState> state)
        : _state(std::move(state))
    {
    }

    std::shared_ptr<detail::JobState> _state;
};

/** Per-submission knobs. */
struct SubmitOptions
{
    /** Base seed for pointSeed(seed, index); session's by default. */
    std::optional<std::uint64_t> base_seed;
    /**
     * Explicit per-point seeds (e.g. opt::specSeed streams). Must be
     * empty or exactly one per spec; overrides base_seed derivation.
     */
    std::vector<std::uint64_t> seeds;
    /**
     * Called after each point retires (complete, failed or skipped),
     * from the worker thread that retired it, outside the job lock.
     * An event loop hangs its wakeup here so it can poll rows only
     * when there is something new, instead of spinning. Must be
     * cheap, non-blocking, and must not touch the job handle. Not
     * invoked for an empty submission (it is born finished).
     */
    std::function<void()> on_retire;
};

/** Owns a worker pool and runs jobs on it. */
class Session
{
  public:
    /** Own a pool built from @p options. */
    explicit Session(sweep::SweepOptions options = {});

    /** Cancels unfinished jobs, then drains the pool. */
    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    unsigned threadCount() const;
    std::uint64_t baseSeed() const { return _base_seed; }

    /**
     * Validate and start a sweep over @p specs. Typed errors for
     * caller mistakes: InvalidSpec (with one detail per offending
     * spec), MixedKinds, BadSeeds. An empty spec list is a valid job
     * that is already finished. Never panics on bad input.
     */
    [[nodiscard]] Outcome<JobHandle>
    submit(const std::vector<ExperimentSpec> &specs,
           SubmitOptions options = {});

    /**
     * Same contract over pre-built experiments (custom Experiment
     * subclasses included). Each must validate and all must share one
     * column schema; a run() that throws or returns the wrong row
     * width retires the job with an ExecutionFailed failure.
     */
    [[nodiscard]] Outcome<JobHandle>
    submit(std::vector<std::unique_ptr<Experiment>> experiments,
           SubmitOptions options = {});

  private:
    /** Seed check + job start over already-validated experiments. */
    Outcome<JobHandle>
    startJob(std::vector<std::unique_ptr<Experiment>> experiments,
             SubmitOptions options);

    sweep::ThreadPool _pool;
    std::uint64_t _base_seed;

    std::mutex _jobs_mutex;
    std::vector<std::weak_ptr<detail::JobState>> _jobs;
};

} // namespace api
} // namespace qmh

#endif // QMH_API_SESSION_HH

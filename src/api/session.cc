#include "session.hh"

#include <algorithm>
#include <atomic>
#include <condition_variable>
#include <exception>

namespace qmh {
namespace api {

namespace detail {

/**
 * All mutable job state. Workers and handles synchronize on `mutex`;
 * the claim counter and the cancel flag are atomics so a worker can
 * claim-and-check without taking the lock, and the immutable fields
 * (experiments, seeds, columns) are published to the workers through
 * the pool's queue mutex.
 */
struct JobState
{
    // Immutable after submit().
    std::vector<std::unique_ptr<Experiment>> experiments;
    std::vector<std::string> columns;  ///< kind columns + "seed"
    std::vector<std::uint64_t> seeds;  ///< one per point
    std::size_t total = 0;
    std::function<void()> on_retire;   ///< post-retirement hook

    std::atomic<std::size_t> next_claim{0};
    std::atomic<bool> cancel{false};

    mutable std::mutex mutex;
    // Two wake channels so point retires do not ping-pong with a
    // thread blocked in wait(): `changed` signals streaming progress
    // (prefix advanced) and is only waited on by nextRow(), `retired`
    // signals job completion and is only waited on by wait(). On a
    // single-CPU host a shared condvar costs one context-switch
    // round-trip per point for a waiter that only cares about the
    // final retire.
    std::condition_variable changed;
    std::condition_variable retired;
    std::vector<std::vector<sweep::Cell>> rows;  ///< set when done
    std::vector<char> row_done;
    std::size_t prefix = 0;  ///< first index not (yet) completed
    std::size_t done = 0;
    std::size_t failed = 0;
    std::size_t skipped = 0;
    std::size_t cursor = 0;  ///< streaming position (< prefix)
    bool finished = false;
    std::optional<Error> failure;
};

namespace {

/** Retire point bookkeeping; call with the lock held. */
void
retireLocked(JobState &state)
{
    if (state.done + state.failed + state.skipped == state.total) {
        state.finished = true;
        state.retired.notify_all();
    }
    state.changed.notify_all();
}

/**
 * One worker's claim loop: pull the next unclaimed index, run it,
 * land the row. Exceptions (and wrong-width rows) become a typed
 * ExecutionFailed failure that cancels the rest of the job — they
 * never reach the pool, so a shared runner's wait() stays clean.
 */
void
runJobWorker(const std::shared_ptr<JobState> &state)
{
    for (;;) {
        const std::size_t i =
            state->next_claim.fetch_add(1, std::memory_order_relaxed);
        if (i >= state->total)
            return;
        if (state->cancel.load(std::memory_order_relaxed)) {
            {
                std::lock_guard<std::mutex> lock(state->mutex);
                ++state->skipped;
                retireLocked(*state);
            }
            if (state->on_retire)
                state->on_retire();
            continue;
        }

        std::vector<sweep::Cell> row;
        std::optional<Error> failure;
        try {
            Random rng(state->seeds[i]);
            row = state->experiments[i]->run(rng);
            if (row.size() + 1 != state->columns.size())
                failure = Error{
                    ErrorCode::ExecutionFailed,
                    "experiment '" + state->experiments[i]->name() +
                        "' returned " + std::to_string(row.size()) +
                        " cells for " +
                        std::to_string(state->columns.size() - 1) +
                        " columns",
                    {}};
            else
                row.emplace_back(state->seeds[i]);
        } catch (const std::exception &e) {
            failure = Error{ErrorCode::ExecutionFailed,
                            std::string("experiment threw: ") +
                                e.what(),
                            {}};
        } catch (...) {
            failure = Error{ErrorCode::ExecutionFailed,
                            "experiment threw a non-std exception",
                            {}};
        }

        {
            std::lock_guard<std::mutex> lock(state->mutex);
            if (failure) {
                if (!state->failure)
                    state->failure = std::move(failure);
                state->cancel.store(true, std::memory_order_relaxed);
                ++state->failed;  // it ran — that is not "skipped"
            } else {
                state->rows[i] = std::move(row);
                state->row_done[i] = 1;
                ++state->done;
                while (state->prefix < state->total &&
                       state->row_done[state->prefix])
                    ++state->prefix;
            }
            retireLocked(*state);
        }
        if (state->on_retire)
            state->on_retire();
    }
}

} // namespace
} // namespace detail

// ---------------------------------------------------------------------------
// JobHandle
// ---------------------------------------------------------------------------

const std::vector<std::string> &
JobHandle::columns() const
{
    return _state->columns;
}

std::size_t
JobHandle::totalPoints() const
{
    return _state->total;
}

JobProgress
JobHandle::progress() const
{
    std::lock_guard<std::mutex> lock(_state->mutex);
    JobProgress progress;
    progress.done = _state->done;
    progress.failed = _state->failed;
    progress.skipped = _state->skipped;
    progress.total = _state->total;
    progress.streamable = _state->prefix;
    progress.cancel_requested =
        _state->cancel.load(std::memory_order_relaxed);
    progress.finished = _state->finished;
    return progress;
}

void
JobHandle::cancel()
{
    _state->cancel.store(true, std::memory_order_relaxed);
}

std::optional<std::vector<sweep::Cell>>
JobHandle::nextRow()
{
    auto &state = *_state;
    std::unique_lock<std::mutex> lock(state.mutex);
    state.changed.wait(lock, [&state]() {
        return state.cursor < state.prefix || state.finished;
    });
    if (state.cursor < state.prefix)
        return state.rows[state.cursor++];
    return std::nullopt;
}

RowPoll
JobHandle::pollRow(std::vector<sweep::Cell> &row)
{
    auto &state = *_state;
    std::lock_guard<std::mutex> lock(state.mutex);
    if (state.cursor < state.prefix) {
        row = state.rows[state.cursor++];
        return RowPoll::Ready;
    }
    return state.finished ? RowPoll::End : RowPoll::Pending;
}

JobResult
JobHandle::wait()
{
    return settle(true);
}

JobResult
JobHandle::waitCounts()
{
    return settle(false);
}

JobResult
JobHandle::settle(bool rows)
{
    auto &state = *_state;
    std::unique_lock<std::mutex> lock(state.mutex);
    state.retired.wait(lock, [&state]() { return state.finished; });

    JobResult result;
    result.table = sweep::ResultTable(state.columns);
    for (std::size_t i = 0; rows && i < state.prefix; ++i)
        result.table.addRow(state.rows[i]);
    result.completed = state.prefix;
    result.executed = state.done + state.failed;
    result.skipped = state.skipped;
    result.cancelled = state.cancel.load(std::memory_order_relaxed);
    result.failure = state.failure;
    return result;
}

// ---------------------------------------------------------------------------
// Session
// ---------------------------------------------------------------------------

Session::Session(sweep::SweepOptions options)
    : _pool(options.threads), _base_seed(options.base_seed)
{
}

Session::~Session()
{
    std::lock_guard<std::mutex> lock(_jobs_mutex);
    for (const auto &weak : _jobs)
        if (const auto state = weak.lock())
            state->cancel.store(true, std::memory_order_relaxed);
}

unsigned
Session::threadCount() const
{
    return _pool.threadCount();
}

Outcome<JobHandle>
Session::submit(const std::vector<ExperimentSpec> &specs,
                SubmitOptions options)
{
    // validateExperiments covers validate() and the column schema,
    // so startJob must not re-check (submissions would pay twice).
    auto experiments = validateExperiments(specs);
    if (!experiments.ok())
        return experiments.error();
    return startJob(std::move(experiments).value(),
                    std::move(options));
}

Outcome<JobHandle>
Session::submit(std::vector<std::unique_ptr<Experiment>> experiments,
                SubmitOptions options)
{
    if (auto error = checkExperimentBatch(experiments))
        return std::move(*error);
    return startJob(std::move(experiments), std::move(options));
}

Outcome<JobHandle>
Session::startJob(std::vector<std::unique_ptr<Experiment>> experiments,
                  SubmitOptions options)
{
    auto state = std::make_shared<detail::JobState>();
    state->total = experiments.size();
    if (experiments.empty()) {
        state->columns = {"spec", "seed"};
    } else {
        state->columns = experiments.front()->columns();
        state->columns.emplace_back("seed");
    }

    if (!options.seeds.empty() &&
        options.seeds.size() != experiments.size())
        return Error{ErrorCode::BadSeeds,
                     "got " + std::to_string(options.seeds.size()) +
                         " explicit seeds for " +
                         std::to_string(experiments.size()) + " specs",
                     {}};
    if (options.seeds.empty()) {
        const std::uint64_t base =
            options.base_seed.value_or(_base_seed);
        state->seeds.reserve(experiments.size());
        for (std::size_t i = 0; i < experiments.size(); ++i)
            state->seeds.push_back(sweep::pointSeed(base, i));
    } else {
        state->seeds = std::move(options.seeds);
    }

    state->experiments = std::move(experiments);
    state->on_retire = std::move(options.on_retire);
    state->rows.resize(state->total);
    state->row_done.assign(state->total, 0);
    state->finished = state->total == 0;

    {
        std::lock_guard<std::mutex> lock(_jobs_mutex);
        // Forget retired jobs so a long-lived session does not grow.
        std::erase_if(_jobs, [](const auto &weak) {
            return weak.expired();
        });
        _jobs.push_back(state);
    }

    const std::size_t n_workers =
        std::min<std::size_t>(_pool.threadCount(), state->total);
    for (std::size_t t = 0; t < n_workers; ++t)
        _pool.submit([state]() { detail::runJobWorker(state); });
    return JobHandle(std::move(state));
}

} // namespace api
} // namespace qmh

/**
 * @file
 * Job-scoped prepared workloads.
 *
 * The points of a design-space sweep mostly vary the machine over one
 * circuit (the paper's Table 5 and Fig. 7 sweep channels, capacity and
 * banks over one adder). Everything a point derives from the circuit
 * alone — the generated workload, its dependency DAG, the scheduler's
 * plan and the flat baseline per block count — is then the same for
 * all of them, so a batch computes it once per circuit:
 *
 *  - validateExperiments() groups a batch's trace and cache
 *    experiments by their generator inputs (workload, n, reps, gates,
 *    mask_data) and gives each group of two or more points one
 *    PreparedSlot, which prepares the flat baseline of every block
 *    count the group's trace points use;
 *  - the first point to run builds the slot's trace::PreparedWorkload;
 *    points running concurrently wait for that one build, later points
 *    reuse it;
 *  - a slot also keeps the group's finished trace runs: a trace point
 *    that differs from a finished run only in `transfers`, where that
 *    run is exact (trace::atTransfers — no transfer ever waited for a
 *    channel, and the count is at least the run's peak channels in
 *    service), takes the run restated at its count instead of
 *    simulating it again. Run in grid order on one worker, 27 of the
 *    48 points of the Table 5 / Fig. 7 grid simulate;
 *  - each point drops its slot reference when its run ends, so the
 *    prepared data and the finished runs are freed as soon as the
 *    last point using them retires, not when the job is destroyed.
 *
 * Generators that draw from the point's rng (WorkloadGenerator::seeded
 * — today only random) never share: two points with equal inputs still
 * get different circuits, and each point's rng sequence stays exactly
 * what it is without sharing. Rows are byte-identical either way:
 * a reused run is the run the point would have simulated, event for
 * event, so even events_executed matches.
 */

#ifndef QMH_API_PREPARED_HH
#define QMH_API_PREPARED_HH

#include <atomic>
#include <memory>
#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/experiment.hh"
#include "api/spec.hh"
#include "common/random.hh"
#include "trace/engine.hh"

namespace qmh {
namespace api {

/**
 * Build @p spec's workload (buildWorkload, so an unbuildable spec
 * throws) and prepare it under the trace kind's latency model with the
 * flat baseline of each of @p blocks.
 */
trace::PreparedWorkload prepareWorkload(const ExperimentSpec &spec,
                                        Random &rng,
                                        const std::vector<unsigned> &blocks);

/** One lazily built prepared workload shared by a group of points. */
class PreparedSlot
{
  public:
    /** @p blocks: block counts whose flat baseline to prepare. */
    explicit PreparedSlot(std::vector<unsigned> blocks)
        : _blocks(std::move(blocks))
    {
    }

    /**
     * The shared prepared workload. The first caller builds it from
     * its @p spec and @p rng (equal generator inputs across the group
     * make the choice of caller unobservable); concurrent callers
     * block until that build is done. A build that throws leaves the
     * slot empty for the next caller.
     */
    const trace::PreparedWorkload &get(const ExperimentSpec &spec,
                                       Random &rng) const;

    /**
     * trace::runTrace of @p prepared (this slot's, from get()) under
     * @p config on @p spec's machine — or, when a finished run of the
     * slot has the same config but for `transfers` and is exact at
     * config.transfers, that run restated there (trace::atTransfers).
     * Simulated runs join the slot's list.
     */
    trace::TraceResult runTrace(const trace::PreparedWorkload &prepared,
                                const trace::TraceConfig &config,
                                const ExperimentSpec &spec) const;

    /** Trace runs simulated through runTrace() so far. */
    // qmh-lint: allow(test-only-api): the only window on run reuse, read by PreparedWorkload.ReuseCountOnTheSweepSharedGrid
    std::size_t simulatedRuns() const;

  private:
    /** A finished run and what it ran under; transfers zeroed. */
    struct FinishedRun
    {
        trace::TraceConfig config;
        std::string machine;
        trace::TraceResult result;
    };

    std::vector<unsigned> _blocks;
    mutable std::mutex _mutex;
    mutable std::optional<trace::PreparedWorkload> _prepared;
    mutable std::mutex _runs_mutex;
    mutable std::vector<FinishedRun> _runs;
};

/**
 * Base of the kinds whose points build a registry workload (trace,
 * cache): holds the point's PreparedSlot until its run takes it.
 */
class WorkloadExperiment : public Experiment
{
  public:
    /** The slot this point shares; null when it shares none or has
     *  already run. */
    std::shared_ptr<const PreparedSlot> slot() const
    {
        return _slot.load();
    }

    /** Share @p slot with the other points of the batch. */
    void share(std::shared_ptr<const PreparedSlot> slot)
    {
        _slot.store(std::move(slot));
    }

  protected:
    using Experiment::Experiment;

    /**
     * Take the slot for this run: the caller's copy keeps the prepared
     * data alive for the run and releases this point's share of it on
     * return. Null when unshared (or run before), in which case the
     * run prepares its own workload.
     */
    std::shared_ptr<const PreparedSlot> takeSlot() const
    {
        return _slot.exchange(nullptr);
    }

  private:
    mutable std::atomic<std::shared_ptr<const PreparedSlot>> _slot;
};

/**
 * Give every group of two or more trace or cache experiments in
 * @p experiments with equal generator inputs one PreparedSlot
 * (unseeded generators only). validateExperiments() calls this on
 * every runnable batch.
 */
void sharePreparedWorkloads(
    const std::vector<std::unique_ptr<Experiment>> &experiments);

/** The slot @p experiment shares with its batch; null when none. */
// qmh-lint: allow(test-only-api): the only window on slot sharing, read by PreparedWorkload.GroupsByGeneratorInputs
std::shared_ptr<const PreparedSlot>
preparedSlot(const Experiment &experiment);

} // namespace api
} // namespace qmh

#endif // QMH_API_PREPARED_HH

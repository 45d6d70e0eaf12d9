/**
 * @file
 * Polymorphic experiment facade over the simulator families.
 *
 * makeExperiment() turns an ExperimentSpec into the matching
 * Experiment (analytic hierarchy model, cache simulator, bandwidth
 * model, error-correction Monte Carlo, trace pipeline). The existing
 * engines (cqla::HierarchyModel, cache::simulateCache,
 * net::BandwidthModel, ecc::EcMonteCarlo, trace::runTrace) stay the
 * internal engines; this layer gives them one contract — validate()
 * -> diagnostics, run(Random&) -> one result-table row — so every
 * CLI, bench and sweep drives any of them interchangeably.
 *
 * Each kind is one table (experiment.cc): the spec keys it reads with
 * their ranges, and its columns as (name, getter) pairs over the spec
 * and the engine's result. validate(), columns(), the row and
 * kindKeys() all come from it, and a spec that sets a key its kind
 * never reads to a non-default value is rejected. Session::submit
 * (session.hh) runs a batch of specs as one deterministic job.
 */

#ifndef QMH_API_EXPERIMENT_HH
#define QMH_API_EXPERIMENT_HH

#include <memory>
#include <string>
#include <vector>

#include "api/outcome.hh"
#include "api/spec.hh"
#include "common/random.hh"
#include "sweep/emit.hh"

namespace qmh {
namespace api {

/** One runnable experiment built from a spec. */
class Experiment
{
  public:
    virtual ~Experiment() = default;

    const ExperimentSpec &spec() const { return _spec; }

    /** Kind name, e.g. "hierarchy". */
    virtual std::string name() const = 0;

    /** Diagnostics for out-of-range or inconsistent fields, and for
     *  non-default fields the kind does not read; empty = ok. */
    virtual std::vector<std::string> validate() const = 0;

    /**
     * Column labels of the row run() produces. The first column is
     * always "spec" (the canonical spec string), so every emitted
     * table is self-describing and re-runnable.
     */
    virtual std::vector<std::string> columns() const = 0;

    /**
     * Execute once and return the row, aligned with columns(). Must
     * be safe to call concurrently from multiple threads (the engines
     * share no mutable state); all randomness comes from @p rng.
     */
    virtual std::vector<sweep::Cell> run(Random &rng) const = 0;

  protected:
    explicit Experiment(ExperimentSpec spec) : _spec(std::move(spec)) {}

    ExperimentSpec _spec;
};

/** Build the experiment for @p spec (any kind). Never null. */
std::unique_ptr<Experiment> makeExperiment(const ExperimentSpec &spec);

/**
 * The spec keys experiments of @p kind read, besides `experiment`, in
 * table order; a kind that reads `workload` lists the keys only some
 * generators read (WorkloadGenerator::keys) last. Setting any other
 * key to a non-default value fails validate().
 */
std::vector<std::string> kindKeys(ExperimentKind kind);

/**
 * The typed checks a runnable batch of caller-built experiments must
 * pass: every experiment validates (ErrorCode::InvalidSpec, one
 * detail per diagnostic, indexed so duplicate spec prints stay
 * tellable apart) and all share one column schema
 * (ErrorCode::MixedKinds). Session::submit(experiments) uses it;
 * validateExperiments makes the same checks, comparing spec kinds
 * instead of column lists. nullopt = runnable.
 */
std::optional<Error> checkExperimentBatch(
    const std::vector<std::unique_ptr<Experiment>> &experiments);

/**
 * Build the experiments for a one-table sweep with typed errors
 * (makeExperiment per spec, then the checks of checkExperimentBatch).
 * Shared by Session::submit, the server and the opt:: cached/adaptive
 * runners so their notion of "runnable batch" cannot drift apart.
 * A runnable batch's trace and cache points that share a circuit also
 * share one job-scoped prepared workload (api/prepared.hh).
 */
[[nodiscard]] Outcome<std::vector<std::unique_ptr<Experiment>>>
validateExperiments(const std::vector<ExperimentSpec> &specs);

} // namespace api
} // namespace qmh

#endif // QMH_API_EXPERIMENT_HH

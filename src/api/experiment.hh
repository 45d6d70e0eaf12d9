/**
 * @file
 * Polymorphic experiment facade over the simulator families.
 *
 * makeExperiment() turns an ExperimentSpec into the matching
 * Experiment (hierarchy DES, cache simulator, bandwidth model,
 * error-correction Monte Carlo). The existing free functions
 * (cqla::runHierarchySim, cache::simulateCache, net::BandwidthModel,
 * ecc::EcMonteCarlo) stay the internal engines; this layer gives them
 * one contract — validate() -> diagnostics, run(Random&) -> one
 * result-table row — so every CLI, bench and sweep drives any of
 * them interchangeably.
 *
 * runSpecSweep() fans a list of specs across a sweep::SweepRunner
 * with the engine's determinism contract: each point's Random stream
 * derives from (base_seed, index), rows land by index, and the
 * emitted table is bit-identical on 1 or N threads.
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
#include "sweep/sweep.hh"

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

    /** Diagnostics for out-of-range or inconsistent fields; empty = ok. */
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
 * The typed checks a runnable batch must pass: every experiment
 * validates (ErrorCode::InvalidSpec, one detail per diagnostic,
 * indexed so duplicate spec prints stay tellable apart) and all
 * share one column schema (ErrorCode::MixedKinds). The single
 * source of truth for Session::submit (both overloads) and
 * validateExperiments. nullopt = runnable.
 */
std::optional<Error> checkExperimentBatch(
    const std::vector<std::unique_ptr<Experiment>> &experiments);

/**
 * Build the experiments for a one-table sweep with typed errors
 * (makeExperiment per spec, then checkExperimentBatch). Shared by
 * Session::submit, runSpecSweep and the opt:: cached/adaptive
 * runners so their notion of "runnable batch" cannot drift apart.
 * A runnable batch's trace and cache points that share a circuit also
 * share one job-scoped prepared workload (api/prepared.hh).
 */
[[nodiscard]] Outcome<std::vector<std::unique_ptr<Experiment>>>
validateExperiments(const std::vector<ExperimentSpec> &specs);

/**
 * validateExperiments with the legacy contract: violations panic.
 * For recoverable diagnostics use validateExperiments (or submit
 * through an api::Session, which returns the typed error).
 */
std::vector<std::unique_ptr<Experiment>>
makeValidatedExperiments(const std::vector<ExperimentSpec> &specs);

/**
 * Run every spec across @p runner and emit one table (columns of the
 * specs' kind plus a trailing "seed" column with each point's derived
 * seed). All specs must validate and be of one kind; violations
 * panic — validate first (or Session::submit) for recoverable
 * diagnostics. Implemented as a blocking session job, so the table
 * is bit-identical to draining a Session submission of @p specs.
 */
sweep::ResultTable
runSpecSweep(sweep::SweepRunner &runner,
             const std::vector<ExperimentSpec> &specs);

/** Convenience overload: builds a runner from @p options. */
sweep::ResultTable
runSpecSweep(const std::vector<ExperimentSpec> &specs,
             const sweep::SweepOptions &options = {});

} // namespace api
} // namespace qmh

#endif // QMH_API_EXPERIMENT_HH

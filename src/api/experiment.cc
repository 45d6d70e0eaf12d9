#include "experiment.hh"

#include <algorithm>
#include <cmath>

#include "api/prepared.hh"
#include "api/session.hh"
#include "api/workload.hh"
#include "common/logging.hh"
#include "cqla/hierarchy_sim.hh"
#include "ecc/montecarlo.hh"
#include "net/bandwidth.hh"
#include "trace/engine.hh"

namespace qmh {
namespace api {

namespace {

void
checkRange(std::vector<std::string> &errors, bool ok,
           const char *message)
{
    if (!ok)
        errors.emplace_back(message);
}

/** The workload generator's own preconditions, prefixed by @p kind. */
void
checkWorkload(std::vector<std::string> &errors,
              const ExperimentSpec &spec, const char *kind)
{
    for (const auto &diagnostic : workloadDiagnostics(spec))
        errors.push_back(std::string(kind) + ": " + diagnostic);
}

/**
 * Range checks of the banked-memory knobs, shared by the two kinds
 * that charge traffic through sim::BankedMemory. The spec parser
 * bounds them, but a C++-built spec can hold 0, which the component
 * refuses fatally — catch it here so it stays a typed diagnostic.
 */
void
checkMemoryKnobs(std::vector<std::string> &errors,
                 const ExperimentSpec &spec, const char *kind)
{
    if (spec.mem_banks < 1)
        errors.push_back(std::string(kind) +
                         ": mem_banks must be >= 1");
    if (spec.mem_ports < 1)
        errors.push_back(std::string(kind) +
                         ": mem_ports must be >= 1");
    if (spec.mem_buffer < 1)
        errors.push_back(std::string(kind) +
                         ": mem_buffer must be >= 1");
}

/**
 * The shared cache auto-sizing rule of the cache and trace kinds:
 * capacity == 0 resolves to capacity_x times the workload's PE qubit
 * count. Truncate, don't round: the paper-figure capacities (e.g.
 * 1.5 x PE on the fig-7 PE counts) have always been the floor of the
 * product.
 */
std::uint64_t
resolveCapacity(const ExperimentSpec &spec, const Workload &workload)
{
    if (spec.capacity != 0)
        return spec.capacity;
    return std::max<std::uint64_t>(
        1, static_cast<std::uint64_t>(spec.capacity_x *
                                      workload.pe_qubits));
}

/** Event-driven CQLA memory-hierarchy simulation (Table 5). */
class HierarchyExperiment final : public Experiment
{
  public:
    explicit HierarchyExperiment(ExperimentSpec spec)
        : Experiment(std::move(spec))
    {
    }

    std::string name() const override { return "hierarchy"; }

    std::vector<std::string> validate() const override
    {
        std::vector<std::string> errors;
        checkRange(errors, _spec.n >= 8 && _spec.n <= 4096,
                   "hierarchy: n must be in [8, 4096]");
        // transfers = 0 would divide by zero in the wave computation;
        // the parser bounds it but a C++-built spec can hold 0.
        checkRange(errors, _spec.transfers >= 1,
                   "hierarchy: transfers must be >= 1");
        checkRange(errors, _spec.adders >= 1,
                   "hierarchy: adders must be >= 1");
        checkRange(errors,
                   _spec.l1_fraction > 0.0 && _spec.l1_fraction <= 1.0,
                   "hierarchy: l1_fraction must be in (0, 1]");
        checkRange(errors,
                   _spec.chain_fraction >= 0.0 &&
                       _spec.chain_fraction <= 1.0,
                   "hierarchy: chain_fraction must be in [0, 1]");
        checkRange(errors,
                   _spec.workload == "draper" ||
                       _spec.workload == "modexp",
                   "hierarchy: workload must be draper or modexp "
                   "(an adder stream)");
        checkMemoryKnobs(errors, _spec, "hierarchy");
        return errors;
    }

    std::vector<std::string> columns() const override
    {
        return {"spec", "code", "n", "transfers", "blocks",
                "mem_banks", "mem_ports",
                "l1_fraction", "makespan_s", "baseline_s",
                "makespan_speedup", "mean_adder_speedup",
                "level1_adds", "level2_adds", "transfer_utilization",
                "bank_conflicts", "mem_stall_ticks", "mem_peak_queue",
                "mem_mean_queue", "mem_utilization",
                "events_executed"};
    }

    std::vector<sweep::Cell> run(Random &) const override
    {
        cqla::HierarchySimConfig config;
        config.code = _spec.code;
        config.n_bits = _spec.n;
        config.parallel_transfers = _spec.transfers;
        config.blocks = _spec.blocks;
        config.total_adders = _spec.adders;
        config.level1_fraction = _spec.l1_fraction;
        config.chain_dependent_fraction = _spec.chain_fraction;
        config.mem_banks = _spec.mem_banks;
        config.mem_ports = _spec.mem_ports;
        config.mem_buffer =
            static_cast<std::size_t>(_spec.mem_buffer);
        config.cycles_per_line = _spec.cycles_per_line;
        const auto result =
            cqla::runHierarchySim(config, _spec.params());
        return {printSpec(_spec),
                ecc::Code::byKind(_spec.code).name(),
                _spec.n,
                _spec.transfers,
                _spec.blocks,
                _spec.mem_banks,
                _spec.mem_ports,
                _spec.l1_fraction,
                result.makespan_s,
                result.baseline_s,
                result.makespan_speedup,
                result.mean_adder_speedup,
                result.level1_adds,
                result.level2_adds,
                result.transfer_utilization,
                result.bank_conflicts,
                result.mem_stall_ticks,
                result.mem_peak_queue,
                result.mem_mean_queue,
                result.mem_utilization,
                result.events_executed};
    }
};

/** Quantum cache simulation over a registry workload (Fig. 7). */
class CacheExperiment final : public WorkloadExperiment
{
  public:
    explicit CacheExperiment(ExperimentSpec spec)
        : WorkloadExperiment(std::move(spec))
    {
    }

    std::string name() const override { return "cache"; }

    std::vector<std::string> validate() const override
    {
        std::vector<std::string> errors;
        checkWorkload(errors, _spec, "cache");
        checkRange(errors, _spec.n >= 2 && _spec.n <= 4096,
                   "cache: n must be in [2, 4096]");
        checkRange(errors, _spec.capacity_x > 0.0,
                   "cache: capacity_x must be > 0");
        checkRange(errors,
                   _spec.capacity == 0 || _spec.capacity <= 1000000,
                   "cache: capacity must be <= 1000000");
        return errors;
    }

    std::vector<std::string> columns() const override
    {
        return {"spec", "workload", "n", "capacity", "policy", "warm",
                "accesses", "hits", "misses", "evictions", "hit_rate"};
    }

    std::vector<sweep::Cell> run(Random &rng) const override
    {
        if (const auto slot = takeSlot()) {
            const auto &prepared = slot->get(_spec, rng);
            return row(prepared.workload(), &prepared.dag());
        }
        return row(buildWorkload(_spec, rng), nullptr);
    }

  private:
    std::vector<sweep::Cell> row(const Workload &workload,
                                 const circuit::DependencyGraph *dag) const
    {
        const auto capacity = resolveCapacity(_spec, workload);
        const auto result = cache::simulateCache(
            workload.program, static_cast<std::size_t>(capacity),
            _spec.policy, _spec.warm, workload.cacheable, dag);
        return {printSpec(_spec),
                _spec.workload,
                _spec.n,
                capacity,
                cache::fetchPolicyName(_spec.policy),
                _spec.warm ? std::int64_t(1) : std::int64_t(0),
                result.accesses,
                result.hits,
                result.misses,
                result.evictions,
                result.hitRate()};
    }
};

/** Superblock perimeter-bandwidth supply/demand (Fig. 6b). */
class BandwidthExperiment final : public Experiment
{
  public:
    explicit BandwidthExperiment(ExperimentSpec spec)
        : Experiment(std::move(spec))
    {
    }

    std::string name() const override { return "bandwidth"; }

    std::vector<std::string> validate() const override
    {
        std::vector<std::string> errors;
        checkRange(errors, _spec.level >= 1 && _spec.level <= 4,
                   "bandwidth: level must be in [1, 4]");
        checkRange(errors,
                   _spec.utilization > 0.0 && _spec.utilization <= 1.0,
                   "bandwidth: utilization must be in (0, 1]");
        checkRange(errors, _spec.blocks <= 100000,
                   "bandwidth: blocks must be <= 100000");
        return errors;
    }

    std::vector<std::string> columns() const override
    {
        return {"spec", "code", "level", "blocks", "utilization",
                "required_worst_qps", "required_draper_qps",
                "available_qps", "crossover_blocks"};
    }

    std::vector<sweep::Cell> run(Random &) const override
    {
        const net::BandwidthModel model(ecc::Code::byKind(_spec.code),
                                        _spec.level, _spec.params());
        const double blocks = static_cast<double>(_spec.blocks);
        return {printSpec(_spec),
                ecc::Code::byKind(_spec.code).name(),
                _spec.level,
                _spec.blocks,
                _spec.utilization,
                model.requiredWorstCase(blocks),
                model.requiredDraper(blocks, _spec.utilization),
                model.availablePerSuperblock(blocks),
                model.crossoverBlocks(4096, _spec.utilization)};
    }
};

/** Error-correction Monte Carlo vs the analytic model (Table 2). */
class MonteCarloExperiment final : public Experiment
{
  public:
    explicit MonteCarloExperiment(ExperimentSpec spec)
        : Experiment(std::move(spec))
    {
    }

    std::string name() const override { return "montecarlo"; }

    std::vector<std::string> validate() const override
    {
        std::vector<std::string> errors;
        checkRange(errors, _spec.level >= 1 && _spec.level <= 3,
                   "montecarlo: level must be in [1, 3] (cost grows "
                   "as n^level per trial)");
        checkRange(errors, _spec.p0 > 0.0 && _spec.p0 <= 0.25,
                   "montecarlo: p0 must be in (0, 0.25]");
        checkRange(errors,
                   _spec.trials >= 1 && _spec.trials <= 100000000,
                   "montecarlo: trials must be in [1, 1e8]");
        checkRange(errors,
                   _spec.noise_factor > 0.0 &&
                       _spec.noise_factor <= 100.0,
                   "montecarlo: noise_factor must be in (0, 100]");
        return errors;
    }

    std::vector<std::string> columns() const override
    {
        return {"spec", "code", "level", "p0", "trials", "failures",
                "mc_rate", "mc_std_error", "analytic_rate"};
    }

    std::vector<sweep::Cell> run(Random &rng) const override
    {
        const ecc::EcMonteCarlo mc(ecc::Code::byKind(_spec.code),
                                   _spec.noise_factor);
        const auto estimate =
            mc.estimate(_spec.level, _spec.p0, _spec.trials, rng);
        return {printSpec(_spec),
                ecc::Code::byKind(_spec.code).name(),
                _spec.level,
                _spec.p0,
                estimate.trials,
                estimate.failures,
                estimate.rate,
                estimate.std_error,
                mc.analytic(_spec.level, _spec.p0)};
    }
};

/**
 * Trace-driven hierarchy pipeline: any registry workload (or a text-
 * format circuit wrapped in an api::Workload) list-scheduled onto
 * level-1 blocks with per-instruction cache residency and transfer-
 * channel charging (trace/engine.hh).
 */
class TraceExperiment final : public WorkloadExperiment
{
  public:
    explicit TraceExperiment(ExperimentSpec spec)
        : WorkloadExperiment(std::move(spec))
    {
    }

    std::string name() const override { return "trace"; }

    std::vector<std::string> validate() const override
    {
        std::vector<std::string> errors;
        checkWorkload(errors, _spec, "trace");
        checkRange(errors, _spec.n >= 2 && _spec.n <= 4096,
                   "trace: n must be in [2, 4096]");
        // The spec parser bounds transfers to [1, 100000], but a spec
        // built in C++ can hold 0, which the engine refuses fatally —
        // catch it here so it stays a typed diagnostic.
        checkRange(errors, _spec.transfers >= 1,
                   "trace: transfers must be >= 1");
        checkRange(errors, _spec.capacity_x > 0.0,
                   "trace: capacity_x must be > 0");
        checkRange(errors,
                   _spec.capacity == 0 || _spec.capacity <= 1000000,
                   "trace: capacity must be <= 1000000");
        checkRange(errors, _spec.gates <= 1000000,
                   "trace: gates must be <= 1000000 (event-driven "
                   "cost grows per gate)");
        checkMemoryKnobs(errors, _spec, "trace");
        return errors;
    }

    std::vector<std::string> columns() const override
    {
        return {"spec", "workload", "n", "blocks", "transfers",
                "capacity", "mem_banks", "mem_ports",
                "makespan_s", "baseline_s", "speedup",
                "accesses", "hits", "misses", "evictions", "hit_rate",
                "transfer_utilization",
                "mem_requests", "writebacks", "bank_conflicts",
                "mem_stall_ticks", "mem_peak_queue", "mem_mean_queue",
                "mem_utilization",
                "block_utilization",
                "peak_in_flight", "mean_in_flight",
                "events_executed"};
    }

    std::vector<sweep::Cell> run(Random &rng) const override
    {
        const auto slot = takeSlot();
        std::optional<trace::PreparedWorkload> own;
        const auto &prepared =
            slot ? slot->get(_spec, rng)
                 : own.emplace(prepareWorkload(_spec, rng, {_spec.blocks}));
        const auto capacity = resolveCapacity(_spec, prepared.workload());
        trace::TraceConfig config;
        config.code = _spec.code;
        config.blocks = _spec.blocks;
        config.transfers = _spec.transfers;
        config.capacity = static_cast<std::size_t>(capacity);
        config.mem_banks = _spec.mem_banks;
        config.mem_ports = _spec.mem_ports;
        config.mem_buffer =
            static_cast<std::size_t>(_spec.mem_buffer);
        config.cycles_per_line = _spec.cycles_per_line;
        config.latency = prepared.plan().latencyModel();
        const auto result =
            trace::runTrace(prepared, config, _spec.params());
        return {printSpec(_spec),
                _spec.workload,
                _spec.n,
                _spec.blocks,
                _spec.transfers,
                capacity,
                _spec.mem_banks,
                _spec.mem_ports,
                result.makespan_s,
                result.baseline_s,
                result.speedup,
                result.accesses,
                result.hits,
                result.misses,
                result.evictions,
                result.hit_rate,
                result.transfer_utilization,
                result.mem_requests,
                result.writebacks,
                result.bank_conflicts,
                result.mem_stall_ticks,
                result.mem_peak_queue,
                result.mem_mean_queue,
                result.mem_utilization,
                result.block_utilization,
                result.peak_in_flight,
                result.mean_in_flight,
                result.events_executed};
    }
};

} // namespace

std::unique_ptr<Experiment>
makeExperiment(const ExperimentSpec &spec)
{
    switch (spec.kind) {
      case ExperimentKind::Hierarchy:
        return std::make_unique<HierarchyExperiment>(spec);
      case ExperimentKind::Cache:
        return std::make_unique<CacheExperiment>(spec);
      case ExperimentKind::Bandwidth:
        return std::make_unique<BandwidthExperiment>(spec);
      case ExperimentKind::MonteCarlo:
        return std::make_unique<MonteCarloExperiment>(spec);
      case ExperimentKind::Trace:
        return std::make_unique<TraceExperiment>(spec);
    }
    // qmh-lint: allow(typed-errors): exhaustive-switch guard — an out-of-range enum is memory corruption, not a request failure
    qmh_panic("makeExperiment: bad ExperimentKind ",
              static_cast<int>(spec.kind));
}

std::optional<Error>
checkExperimentBatch(
    const std::vector<std::unique_ptr<Experiment>> &experiments)
{
    std::vector<std::string> invalid;
    for (std::size_t i = 0; i < experiments.size(); ++i)
        for (const auto &diagnostic : experiments[i]->validate())
            invalid.push_back("spec " + std::to_string(i) + " ('" +
                              printSpec(experiments[i]->spec()) +
                              "'): " + diagnostic);
    if (!invalid.empty())
        return Error{ErrorCode::InvalidSpec,
                     std::to_string(invalid.size()) +
                         " validation error(s) in the submitted specs",
                     std::move(invalid)};
    for (const auto &experiment : experiments)
        if (experiment->columns() != experiments.front()->columns())
            return Error{
                ErrorCode::MixedKinds,
                "mixed experiment kinds in one sweep (" +
                    experiments.front()->name() + " vs " +
                    experiment->name() + ")",
                {}};
    return std::nullopt;
}

Outcome<std::vector<std::unique_ptr<Experiment>>>
validateExperiments(const std::vector<ExperimentSpec> &specs)
{
    std::vector<std::unique_ptr<Experiment>> experiments;
    experiments.reserve(specs.size());
    for (const auto &spec : specs)
        experiments.push_back(makeExperiment(spec));
    if (auto error = checkExperimentBatch(experiments))
        return std::move(*error);
    sharePreparedWorkloads(experiments);
    return experiments;
}

sweep::ResultTable
runSpecSweep(sweep::SweepRunner &runner,
             const std::vector<ExperimentSpec> &specs)
{
    Session session(runner);
    auto submitted = session.submit(specs);
    if (!submitted.ok())
        // qmh-lint: allow(typed-errors): documented legacy panic surface — Session::submit is the typed twin callers migrate to
        qmh_panic("runSpecSweep: ", submitted.error().describe());
    auto result = submitted.value().wait();
    if (result.failure)
        // qmh-lint: allow(typed-errors): documented legacy panic surface — Session::submit is the typed twin callers migrate to
        qmh_panic("runSpecSweep: ", result.failure->describe());
    return std::move(result.table);
}

sweep::ResultTable
runSpecSweep(const std::vector<ExperimentSpec> &specs,
             const sweep::SweepOptions &options)
{
    sweep::SweepRunner runner(options);
    return runSpecSweep(runner, specs);
}

} // namespace api
} // namespace qmh

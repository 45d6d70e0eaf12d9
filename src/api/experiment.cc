#include "experiment.hh"

#include <algorithm>
#include <cmath>
#include <iterator>
#include <limits>
#include <type_traits>

#include "api/prepared.hh"
#include "api/workload.hh"
#include "common/logging.hh"
#include "common/table.hh"
#include "cqla/hierarchy.hh"
#include "ecc/montecarlo.hh"
#include "net/bandwidth.hh"
#include "trace/engine.hh"

namespace qmh {
namespace api {

namespace {

constexpr double kUnbounded = std::numeric_limits<double>::infinity();

/**
 * A spec key a kind reads. validate() applies the parser's bounds to
 * every key first (specSet), so a kind lists only bounds tighter than
 * the parser's: they keep a point's cost in check or guard an engine
 * check that would fail the point. A bounded key's value must lie in
 * [lo, hi] (lo excluded when lo_open).
 */
struct Key
{
    std::string_view name;
    double lo = -kUnbounded;
    double hi = kUnbounded;
    bool lo_open = false;
    const char *note = nullptr;  ///< why the bound is what it is
};

/** One result column: its name and its cell for a finished run. */
template <typename Result>
struct Column
{
    const char *name;
    sweep::Cell (*get)(const ExperimentSpec &, const Result &);
};

/**
 * Everything that defines a kind: the keys it reads, its engine run
 * and its columns after the leading "spec". A kind that reads
 * `workload` also reads its generator's keys (WorkloadGenerator::keys).
 */
template <typename Result>
struct KindTable
{
    const char *name;
    std::vector<Key> keys;
    Result (*run)(const ExperimentSpec &, Random &, const PreparedSlot *);
    std::vector<Column<Result>> columns;
};

/** A column @p name whose cell is @p expr over the spec `s` and the
 *  engine's result `r`. */
#define COLUMN(name, expr)                                              \
    {                                                                   \
        name, []([[maybe_unused]] const ExperimentSpec &s,              \
                 [[maybe_unused]] const auto &r) -> sweep::Cell {       \
            return expr;                                                \
        }                                                               \
    }
/** Columns named after the spec or result field they read. */
#define SPEC_COLUMN(field) COLUMN(#field, s.field)
#define RESULT_COLUMN(field) COLUMN(#field, r.field)
#define CODE_COLUMN COLUMN("code", ecc::Code::byKind(s.code).name())

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

/**
 * The analytic memory-hierarchy row of paper Table 5: S1, S2, the
 * fidelity-budget level-1 share, their adder-speedup mix, area
 * reduction and gain product (cqla::HierarchyModel).
 */
const KindTable<cqla::Table5Row> hierarchy_table = {
    "hierarchy",
    {{"machine"}, {"code"}, {"n", 8, 4096}, {"transfers"}, {"blocks"}},
    [](const ExperimentSpec &spec, Random &, const PreparedSlot *) {
        return cqla::HierarchyModel(spec.params())
            .row(ecc::Code::byKind(spec.code), spec.n, spec.transfers,
                 spec.blocks);
    },
    {CODE_COLUMN, SPEC_COLUMN(n), SPEC_COLUMN(transfers),
     SPEC_COLUMN(blocks), RESULT_COLUMN(level1_speedup),
     RESULT_COLUMN(level2_speedup), RESULT_COLUMN(level1_add_fraction),
     RESULT_COLUMN(adder_speedup), RESULT_COLUMN(area_reduced),
     RESULT_COLUMN(gain_product)}};

/** Quantum cache simulation over a registry workload (Fig. 7). */
const KindTable<cache::CacheSimResult> cache_table = {
    "cache",
    {{"workload"}, {"n", 2, 4096}, {.name = "capacity", .hi = 1000000},
     {"capacity_x", 0, 1000, true}, {"policy"}, {"warm"}},
    [](const ExperimentSpec &spec, Random &rng, const PreparedSlot *slot) {
        const auto simulate = [&](const Workload &workload,
                                  const circuit::DependencyGraph *dag) {
            return cache::simulateCache(
                workload.program,
                static_cast<std::size_t>(resolveCapacity(spec, workload)),
                spec.policy, spec.warm, workload.cacheable, dag);
        };
        if (slot) {
            const auto &prepared = slot->get(spec, rng);
            return simulate(prepared.workload(), &prepared.dag());
        }
        return simulate(buildWorkload(spec, rng), nullptr);
    },
    {SPEC_COLUMN(workload), SPEC_COLUMN(n), RESULT_COLUMN(capacity),
     COLUMN("policy", cache::fetchPolicyName(s.policy)),
     COLUMN("warm", s.warm ? std::int64_t(1) : std::int64_t(0)),
     RESULT_COLUMN(accesses), RESULT_COLUMN(hits), RESULT_COLUMN(misses),
     RESULT_COLUMN(evictions), COLUMN("hit_rate", r.hitRate())}};

/** Superblock perimeter-bandwidth supply/demand (Fig. 6b). */
const KindTable<net::BandwidthModel> bandwidth_table = {
    "bandwidth",
    {{"machine"}, {"code"}, {.name = "blocks", .hi = 100000},
     {.name = "level", .hi = 4}, {"utilization", 0, 1, true}},
    [](const ExperimentSpec &spec, Random &, const PreparedSlot *) {
        return net::BandwidthModel(ecc::Code::byKind(spec.code),
                                   spec.level, spec.params());
    },
    {CODE_COLUMN, SPEC_COLUMN(level), SPEC_COLUMN(blocks),
     SPEC_COLUMN(utilization),
     COLUMN("required_worst_qps",
            r.requiredWorstCase(static_cast<double>(s.blocks))),
     COLUMN("required_draper_qps",
            r.requiredDraper(static_cast<double>(s.blocks), s.utilization)),
     COLUMN("available_qps",
            r.availablePerSuperblock(static_cast<double>(s.blocks))),
     COLUMN("crossover_blocks", r.crossoverBlocks(4096, s.utilization))}};

/** A Monte Carlo estimate next to the analytic model's rate. */
struct MonteCarloResult : ecc::McEstimate
{
    double analytic_rate = 0.0;
};

/** Error-correction Monte Carlo vs the analytic model (Table 2). */
const KindTable<MonteCarloResult> montecarlo_table = {
    "montecarlo",
    {{"code"},
     {.name = "level", .hi = 3, .note = "cost grows as n^level per trial"},
     {"p0", 0, 0.25, true}, {"trials", 1, 100000000},
     // ecc::EcMonteCarlo refuses a noise factor below 1.
     {"noise_factor", 1, 100}},
    [](const ExperimentSpec &spec, Random &rng, const PreparedSlot *) {
        const ecc::EcMonteCarlo mc(ecc::Code::byKind(spec.code),
                                   spec.noise_factor);
        return MonteCarloResult{
            mc.estimate(spec.level, spec.p0, spec.trials, rng),
            mc.analytic(spec.level, spec.p0)};
    },
    {CODE_COLUMN, SPEC_COLUMN(level), SPEC_COLUMN(p0),
     RESULT_COLUMN(trials), RESULT_COLUMN(failures),
     COLUMN("mc_rate", r.rate), COLUMN("mc_std_error", r.std_error),
     RESULT_COLUMN(analytic_rate)}};

/** A trace run with the cache capacity it resolved to. */
struct TraceKindResult : trace::TraceResult
{
    std::uint64_t capacity = 0;
};

/**
 * Trace-driven hierarchy pipeline: any registry workload list-
 * scheduled onto level-1 blocks with per-instruction cache residency
 * and transfer-channel charging (trace/engine.hh).
 */
const KindTable<TraceKindResult> trace_table = {
    "trace",
    {{"machine"}, {"code"}, {"workload"}, {"n", 2, 4096}, {"transfers"},
     {"blocks"}, {"mem_banks"}, {"mem_ports"}, {"mem_buffer"},
     {"cycles_per_line"}, {.name = "capacity", .hi = 1000000},
     {"capacity_x", 0, 1000, true}},
    [](const ExperimentSpec &spec, Random &rng, const PreparedSlot *slot) {
        std::optional<trace::PreparedWorkload> own;
        const auto &prepared =
            slot ? slot->get(spec, rng)
                 : own.emplace(prepareWorkload(spec, rng, {spec.blocks}));
        const auto capacity = resolveCapacity(spec, prepared.workload());
        trace::TraceConfig config;
        config.code = spec.code;
        config.blocks = spec.blocks;
        config.transfers = spec.transfers;
        config.capacity = static_cast<std::size_t>(capacity);
        config.mem_banks = spec.mem_banks;
        config.mem_ports = spec.mem_ports;
        config.mem_buffer = static_cast<std::size_t>(spec.mem_buffer);
        config.cycles_per_line = spec.cycles_per_line;
        config.latency = prepared.plan().latencyModel();
        return TraceKindResult{
            slot ? slot->runTrace(prepared, config, spec)
                 : trace::runTrace(prepared, config, spec.params()),
            capacity};
    },
    {SPEC_COLUMN(workload), SPEC_COLUMN(n), SPEC_COLUMN(blocks),
     SPEC_COLUMN(transfers), RESULT_COLUMN(capacity),
     SPEC_COLUMN(mem_banks), SPEC_COLUMN(mem_ports),
     RESULT_COLUMN(makespan_s), RESULT_COLUMN(baseline_s),
     RESULT_COLUMN(speedup), RESULT_COLUMN(accesses), RESULT_COLUMN(hits),
     RESULT_COLUMN(misses), RESULT_COLUMN(evictions),
     RESULT_COLUMN(hit_rate), RESULT_COLUMN(transfer_utilization),
     RESULT_COLUMN(mem_requests), RESULT_COLUMN(writebacks),
     RESULT_COLUMN(bank_conflicts), RESULT_COLUMN(mem_stall_ticks),
     RESULT_COLUMN(mem_peak_queue), RESULT_COLUMN(mem_mean_queue),
     RESULT_COLUMN(mem_utilization), RESULT_COLUMN(block_utilization),
     RESULT_COLUMN(peak_in_flight), RESULT_COLUMN(mean_in_flight),
     RESULT_COLUMN(events_executed)}};

#undef CODE_COLUMN
#undef RESULT_COLUMN
#undef SPEC_COLUMN
#undef COLUMN

const Key *
findKey(const std::vector<Key> &keys, std::string_view name)
{
    for (const auto &key : keys)
        if (name == key.name)
            return &key;
    return nullptr;
}

/** Every key of @p keys, then @p generator's (when non-null). */
std::vector<std::string>
keyNames(const std::vector<Key> &keys, const WorkloadGenerator *generator)
{
    std::vector<std::string> names;
    for (const auto &key : keys)
        names.emplace_back(key.name);
    if (generator)
        names.insert(names.end(), generator->keys.begin(),
                     generator->keys.end());
    return names;
}

/** A bound as written in a diagnostic: integers without exponent. */
std::string
boundText(double bound)
{
    if (bound == std::floor(bound) && std::fabs(bound) < 1e15)
        return std::to_string(static_cast<std::int64_t>(bound));
    return formatDoubleShortest(bound);
}

bool
inRange(const Key &key, double value)
{
    return (key.lo_open ? value > key.lo : value >= key.lo) &&
           value <= key.hi;
}

std::string
rangeDiagnostic(const Key &key)
{
    const auto range =
        key.lo == -kUnbounded
            ? "at most " + boundText(key.hi)
            : std::string("in ") + (key.lo_open ? "(" : "[") +
                  boundText(key.lo) + ", " + boundText(key.hi) + "]";
    const auto message = std::string(key.name) + " must be " + range;
    return key.note ? message + " (" + key.note + ")" : message;
}

/**
 * validate() of every kind. Only a value that differs from the
 * default can be foreign or out of range — every default lies inside
 * the parser's and every kind's bounds — and printSpec() emits exactly
 * those, so one pass over its tokens checks all three. Each token is
 * re-parsed by specSet, so a spec that validates also re-parses: its
 * spec column is a spec parseSpec accepts. The workload generator's
 * preconditions are checked only when every key it reads (workload,
 * n and its own keys) re-parses, so one fault gets one diagnostic.
 */
std::vector<std::string>
checkKeys(const ExperimentSpec &spec, const std::string &kind,
          const std::vector<Key> &keys)
{
    std::vector<std::string> errors;
    const bool reads_workload = findKey(keys, "workload") != nullptr;
    const WorkloadGenerator *generator =
        reads_workload ? findWorkload(spec.workload) : nullptr;
    // A generator input the parser rejects is one fault with one
    // diagnostic: the generator's preconditions would restate it.
    bool generator_input_rejected = false;
    ExperimentSpec reparsed;  // specSet's target; only its verdict counts
    const auto printed = printSpec(spec);
    std::string_view rest(printed);
    // Past the first token, experiment=<kind>, which every kind reads.
    while (rest.find(' ') != std::string_view::npos) {
        rest.remove_prefix(rest.find(' ') + 1);
        const auto token = rest.substr(0, rest.find(' '));
        // A value holding a space (only a C++-built spec can) splits
        // into a token without '='; it is reported, never indexed past.
        const auto eq = std::min(token.find('='), token.size());
        const auto name = token.substr(0, eq);
        const auto *key = findKey(keys, name);
        const auto text = token.substr(std::min(eq + 1, token.size()));
        const bool generator_reads =
            generator && std::ranges::find(generator->keys, name) !=
                             generator->keys.end();
        if (!key && !generator_reads) {
            errors.push_back(kind + ": " +
                             unknownNameDiagnostic(kind + " key", name,
                                                   keyNames(keys, generator)));
        } else if (auto diagnostic = specSet(reparsed, name, text);
                   !diagnostic.empty()) {
            errors.push_back(kind + ": " + diagnostic);
            generator_input_rejected |=
                generator_reads || name == "workload" || name == "n";
        } else if (const auto value = parseDouble(text);
                   key && value && !inRange(*key, *value)) {
            errors.push_back(kind + ": " + rangeDiagnostic(*key));
        }
    }
    if (reads_workload && !generator_input_rejected) {
        auto diagnostics = workloadDiagnostics(spec);
        for (auto &diagnostic : diagnostics)
            diagnostic = kind + ": " + diagnostic;
        errors.insert(errors.begin(),
                      std::make_move_iterator(diagnostics.begin()),
                      std::make_move_iterator(diagnostics.end()));
    }
    return errors;
}

/** The experiment a kind's table defines; Base is WorkloadExperiment
 *  for the kinds whose points can share a prepared workload. */
template <typename Result, typename Base>
class TableExperiment final : public Base
{
  public:
    TableExperiment(ExperimentSpec spec, const KindTable<Result> &table)
        : Base(std::move(spec)), _table(table)
    {
    }

    std::string name() const override { return _table.name; }

    std::vector<std::string> validate() const override
    {
        return checkKeys(this->_spec, _table.name, _table.keys);
    }

    std::vector<std::string> columns() const override
    {
        std::vector<std::string> names = {"spec"};
        for (const auto &column : _table.columns)
            names.emplace_back(column.name);
        return names;
    }

    std::vector<sweep::Cell> run(Random &rng) const override
    {
        std::shared_ptr<const PreparedSlot> slot;
        if constexpr (std::is_same_v<Base, WorkloadExperiment>)
            slot = this->takeSlot();
        const auto result = _table.run(this->_spec, rng, slot.get());
        std::vector<sweep::Cell> row;
        row.reserve(_table.columns.size() + 1);
        row.emplace_back(printSpec(this->_spec));
        for (const auto &column : _table.columns)
            row.push_back(column.get(this->_spec, result));
        return row;
    }

  private:
    const KindTable<Result> &_table;
};

template <typename Base, typename Result>
std::unique_ptr<Experiment>
makeTableExperiment(const ExperimentSpec &spec,
                    const KindTable<Result> &table)
{
    return std::make_unique<TableExperiment<Result, Base>>(spec, table);
}

/** The key table of @p kind. */
const std::vector<Key> &
keysOf(ExperimentKind kind)
{
    switch (kind) {
      case ExperimentKind::Hierarchy:  return hierarchy_table.keys;
      case ExperimentKind::Cache:      return cache_table.keys;
      case ExperimentKind::Bandwidth:  return bandwidth_table.keys;
      case ExperimentKind::MonteCarlo: return montecarlo_table.keys;
      case ExperimentKind::Trace:      return trace_table.keys;
    }
    // qmh-lint: allow(typed-errors): exhaustive-switch guard — an out-of-range enum is memory corruption, not a request failure
    qmh_panic("keysOf: bad ExperimentKind ", static_cast<int>(kind));
}

} // namespace

std::unique_ptr<Experiment>
makeExperiment(const ExperimentSpec &spec)
{
    switch (spec.kind) {
      case ExperimentKind::Hierarchy:
        return makeTableExperiment<Experiment>(spec, hierarchy_table);
      case ExperimentKind::Cache:
        return makeTableExperiment<WorkloadExperiment>(spec, cache_table);
      case ExperimentKind::Bandwidth:
        return makeTableExperiment<Experiment>(spec, bandwidth_table);
      case ExperimentKind::MonteCarlo:
        return makeTableExperiment<Experiment>(spec, montecarlo_table);
      case ExperimentKind::Trace:
        return makeTableExperiment<WorkloadExperiment>(spec, trace_table);
    }
    // qmh-lint: allow(typed-errors): exhaustive-switch guard — an out-of-range enum is memory corruption, not a request failure
    qmh_panic("makeExperiment: bad ExperimentKind ",
              static_cast<int>(spec.kind));
}

std::vector<std::string>
kindKeys(ExperimentKind kind)
{
    const auto &keys = keysOf(kind);
    auto names = keyNames(keys, nullptr);
    if (findKey(keys, "workload"))
        for (const auto &generator : workloadRegistry())
            for (const auto &key : generator.keys)
                if (std::ranges::find(names, key) == names.end())
                    names.push_back(key);
    return names;
}

namespace {

/** InvalidSpec listing every validate() diagnostic of @p experiments,
 *  indexed so duplicate spec prints stay tellable apart. */
std::optional<Error>
invalidSpecs(const std::vector<std::unique_ptr<Experiment>> &experiments)
{
    std::vector<std::string> invalid;
    for (std::size_t i = 0; i < experiments.size(); ++i)
        for (const auto &diagnostic : experiments[i]->validate())
            invalid.push_back("spec " + std::to_string(i) + " ('" +
                              printSpec(experiments[i]->spec()) +
                              "'): " + diagnostic);
    if (invalid.empty())
        return std::nullopt;
    return Error{ErrorCode::InvalidSpec,
                 std::to_string(invalid.size()) +
                     " validation error(s) in the submitted specs",
                 std::move(invalid)};
}

Error
mixedKinds(const Experiment &first, const Experiment &other)
{
    return Error{ErrorCode::MixedKinds,
                 "mixed experiment kinds in one sweep (" + first.name() +
                     " vs " + other.name() + ")",
                 {}};
}

} // namespace

std::optional<Error>
checkExperimentBatch(
    const std::vector<std::unique_ptr<Experiment>> &experiments)
{
    if (auto error = invalidSpecs(experiments))
        return error;
    if (experiments.empty())
        return std::nullopt;
    const auto columns = experiments.front()->columns();
    for (const auto &experiment : experiments)
        if (experiment->columns() != columns)
            return mixedKinds(*experiments.front(), *experiment);
    return std::nullopt;
}

Outcome<std::vector<std::unique_ptr<Experiment>>>
validateExperiments(const std::vector<ExperimentSpec> &specs)
{
    std::vector<std::unique_ptr<Experiment>> experiments;
    experiments.reserve(specs.size());
    for (const auto &spec : specs)
        experiments.push_back(makeExperiment(spec));
    if (auto error = invalidSpecs(experiments))
        return std::move(*error);
    // Each kind has one column table, so on this path equal kinds
    // mean equal columns, without building a column list per point.
    for (const auto &experiment : experiments)
        if (experiment->spec().kind != specs.front().kind)
            return mixedKinds(*experiments.front(), *experiment);
    sharePreparedWorkloads(experiments);
    return experiments;
}

} // namespace api
} // namespace qmh

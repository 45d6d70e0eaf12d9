/**
 * @file
 * The unified experiment specification of the qmh facade.
 *
 * Every simulator family in the repo (hierarchy model, cache
 * simulator, bandwidth model, error-correction Monte Carlo, trace
 * engine) is driven from one
 * value type, ExperimentSpec: a machine (technology preset + code), a
 * workload (named generator + parameters) and an experiment kind with
 * its knobs. Specs speak one textual language — whitespace-separated
 * `key=value` tokens — shared by every CLI, bench and sweep axis, so
 * "run this paper figure" is a one-liner and a design-space sweep is
 * a spec plus axis overrides (see grid.hh).
 *
 * The printer is canonical and minimal: `printSpec` emits the
 * experiment kind plus every field that differs from the default, in
 * a fixed order, with doubles in shortest round-trip form, so
 * `parseSpec(printSpec(s)) == s` holds exactly for any spec.
 */

#ifndef QMH_API_SPEC_HH
#define QMH_API_SPEC_HH

#include <cstdint>
#include <optional>
#include <string>
#include <string_view>
#include <vector>

#include "cache/cache_sim.hh"
#include "ecc/code.hh"
#include "iontrap/params.hh"

namespace qmh {
namespace api {

/** The simulator family an ExperimentSpec drives. */
enum class ExperimentKind {
    Hierarchy,   ///< analytic memory-hierarchy row (Table 5)
    Cache,       ///< quantum cache simulator (Fig. 7)
    Bandwidth,   ///< superblock perimeter-bandwidth model (Fig. 6b)
    MonteCarlo,  ///< error-correction Monte Carlo (Table 2 validation)
    Trace        ///< trace-driven circuit-to-cache-to-network pipeline
};

/** Canonical kind name used in specs ("hierarchy", "cache", ...). */
const char *kindName(ExperimentKind kind);

/** Parse a kind name; nullopt on unknown. */
std::optional<ExperimentKind> parseKind(std::string_view name);

/** Every experiment kind name, in declaration order. */
const std::vector<std::string> &experimentKindNames();

/**
 * Diagnostic for an unknown name in an enumerated vocabulary: lists
 * every valid name and, when one is close in edit distance, suggests
 * it. Shared by the spec parser (`experiment=`) and the workload
 * validation of the experiment facade, so unknown-name errors are
 * uniformly actionable whichever surface reports them.
 */
std::string unknownNameDiagnostic(std::string_view what,
                                  std::string_view name,
                                  const std::vector<std::string> &valid);

/**
 * Diagnostic for a technology preset that is not `now` or `future`;
 * empty when @p machine names one. The `machine=` parser and the
 * validate() of every kind that reads the machine share it, so a spec
 * built in C++ with an unknown preset is a typed error too.
 */
std::string machineDiagnostic(std::string_view machine);

/**
 * One experiment, fully specified. Fields the chosen kind does not
 * read (api::kindKeys) must keep their defaults: Experiment::validate()
 * (experiment.hh) rejects any other value, as it rejects out-of-range
 * values of the fields the kind does read.
 */
struct ExperimentSpec
{
    ExperimentKind kind = ExperimentKind::Hierarchy;

    // --- machine ---
    std::string machine = "future";  ///< iontrap preset: now | future
    ecc::CodeKind code = ecc::CodeKind::Steane713;

    // --- workload (registry of named generators; workload.hh) ---
    std::string workload = "draper";
    int n = 256;      ///< operand / register width
    int gates = 512;  ///< gate count (random workload)
    int reps = 4;     ///< repeated additions (modexp workload)

    // --- hierarchy / trace knobs ---
    unsigned transfers = 10;          ///< parallel transfer channels
    unsigned blocks = 49;             ///< compute blocks

    // --- banked level-2 memory (trace kind) ---
    unsigned mem_banks = 8;           ///< memory banks (addr % banks)
    unsigned mem_ports = 4;           ///< concurrent requests served
    std::uint64_t mem_buffer = 8;     ///< bounded request deque per bank
    std::uint64_t cycles_per_line = 0;///< extra bank ticks per line

    // --- cache / trace knobs ---
    std::uint64_t capacity = 0;  ///< cached qubits; 0 = capacity_x * PE
    double capacity_x = 1.0;     ///< auto-capacity multiplier of PE
    cache::FetchPolicy policy = cache::FetchPolicy::OptimizedLookahead;
    bool warm = false;           ///< warm-start the cache
    bool mask_data = true;       ///< cache only the data registers

    // --- bandwidth / montecarlo knobs ---
    int level = 2;               ///< concatenation level
    double utilization = 1.0;    ///< busy-block fraction (bandwidth)
    double p0 = 1e-4;            ///< physical error rate (montecarlo)
    std::uint64_t trials = 20000;///< Monte-Carlo trials
    double noise_factor = 2.0;   ///< EC-circuit noise multiplier

    bool operator==(const ExperimentSpec &) const = default;

    /** Resolve the technology preset (panics on an unknown machine,
     *  which validate() reports first). */
    iontrap::Params params() const;
};

/** Every spec key in canonical (print) order. */
const std::vector<std::string> &specKeys();

/** Value shape of a spec key (drives generic tooling like the
 * design-space optimizer, which can only refine numeric axes). */
enum class SpecKeyKind {
    Text,  ///< enumerated / free-form string
    Int,   ///< bounded signed integer
    UInt,  ///< unsigned 64-bit integer
    Real,  ///< finite double
    Bool   ///< 0 | 1
};

/** Value shape of @p key; nullopt on unknown key. */
std::optional<SpecKeyKind> specKeyKind(std::string_view key);

/** One-line help text for @p key; nullptr on unknown key. */
const char *specKeyHelp(std::string_view key);

/** Canonical textual value of @p key; nullopt on unknown key. */
std::optional<std::string> specGet(const ExperimentSpec &spec,
                                   std::string_view key);

/**
 * Set @p key from its textual form. Returns the empty string on
 * success, a diagnostic otherwise (unknown key, malformed value).
 */
std::string specSet(ExperimentSpec &spec, std::string_view key,
                    std::string_view value);

/**
 * Canonical one-line form: `experiment=<kind>` followed by every
 * field that differs from the defaults, in specKeys() order.
 */
std::string printSpec(const ExperimentSpec &spec);

/** Outcome of parsing a spec string. */
struct SpecParseResult
{
    ExperimentSpec spec;
    std::vector<std::string> errors;

    bool ok() const { return errors.empty(); }
};

/**
 * Parse whitespace-separated `key=value` tokens over the default
 * spec. All tokens are processed; every problem is reported.
 */
SpecParseResult parseSpec(std::string_view text);

/** Parse pre-split tokens (e.g. argv tails). */
SpecParseResult parseSpecTokens(const std::vector<std::string> &tokens);

/**
 * Strict numeric parsing: the whole string must be consumed and in
 * range, otherwise nullopt. No leading whitespace, no trailing junk —
 * unlike std::atoi, garbage never silently coerces to 0.
 */
std::optional<std::int64_t> parseInt(std::string_view text);
std::optional<std::uint64_t> parseUInt(std::string_view text);
std::optional<double> parseDouble(std::string_view text);

/** Shortest decimal form that parses back to the same double. */
std::string formatDouble(double v);

} // namespace api
} // namespace qmh

#endif // QMH_API_SPEC_HH

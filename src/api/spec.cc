#include "spec.hh"

#include <algorithm>
#include <charconv>
#include <cmath>
#include <cstring>

#include "common/logging.hh"
#include "common/table.hh"

namespace qmh {
namespace api {

namespace {

/** Field descriptor: one `key=value` handled uniformly. */
struct FieldDef
{
    const char *key;
    const char *help;
    SpecKeyKind kind;
    std::string (*get)(const ExperimentSpec &);
    /** Returns "" on success, a diagnostic otherwise. */
    std::string (*set)(ExperimentSpec &, std::string_view);
    /** True when get() would differ from the default's. */
    bool (*differs)(const ExperimentSpec &);
};

/**
 * Whether @p member of @p spec differs from the default's, exactly as
 * their canonical texts would: scalars compare bitwise, so -0 differs
 * from 0 as "-0" differs from "0".
 */
template <typename T>
bool
differsFromDefault(const ExperimentSpec &spec, T ExperimentSpec::*member)
{
    static const ExperimentSpec defaults;
    if constexpr (std::is_same_v<T, std::string>)
        return spec.*member != defaults.*member;
    else
        return std::memcmp(&(spec.*member), &(defaults.*member),
                           sizeof(T)) != 0;
}

std::string
badValue(const char *key, std::string_view value, const char *expect)
{
    return std::string(key) + "=" + std::string(value) + ": expected " +
           expect;
}

const char *
policyName(cache::FetchPolicy policy)
{
    return policy == cache::FetchPolicy::InOrder ? "inorder"
                                                 : "optimized";
}

const char *
codeSpecName(ecc::CodeKind kind)
{
    return kind == ecc::CodeKind::Steane713 ? "steane" : "bacon-shor";
}

// Getter/setter/differs builders for the common field shapes. Each
// returns captureless lambdas convertible to the function pointers
// above.

#define QMH_DIFFERS(member)                                             \
    [](const ExperimentSpec &s) {                                       \
        return differsFromDefault(s, &ExperimentSpec::member);          \
    }

#define QMH_INT_FIELD(member, lo, hi)                                   \
    [](const ExperimentSpec &s) {                                       \
        return std::to_string(s.member);                                \
    },                                                                  \
    [](ExperimentSpec &s, std::string_view v) -> std::string {          \
        const auto parsed = parseInt(v);                                \
        if (!parsed || *parsed < (lo) || *parsed > (hi))                \
            return badValue(#member, v,                                 \
                            "integer in [" #lo ", " #hi "]");           \
        s.member = static_cast<decltype(s.member)>(*parsed);            \
        return "";                                                      \
    }, QMH_DIFFERS(member)

#define QMH_U64_FIELD(member)                                           \
    [](const ExperimentSpec &s) {                                       \
        return std::to_string(s.member);                                \
    },                                                                  \
    [](ExperimentSpec &s, std::string_view v) -> std::string {          \
        const auto parsed = parseUInt(v);                               \
        if (!parsed)                                                    \
            return badValue(#member, v, "unsigned integer");            \
        s.member = *parsed;                                             \
        return "";                                                      \
    }, QMH_DIFFERS(member)

// Non-finite values are rejected even though parseDouble accepts
// them: NaN breaks the parse(print(s)) == s contract (NaN != NaN),
// and downstream consumers key result caches on the canonical spec
// string and cast spec reals to integers (capacity sizing), both of
// which inf/nan would silently corrupt.
#define QMH_DOUBLE_FIELD(member)                                        \
    [](const ExperimentSpec &s) {                                       \
        return formatDoubleShortest(s.member);                          \
    },                                                                  \
    [](ExperimentSpec &s, std::string_view v) -> std::string {          \
        const auto parsed = parseDouble(v);                             \
        if (!parsed || !std::isfinite(*parsed))                         \
            return badValue(#member, v, "finite real number");          \
        s.member = *parsed;                                             \
        return "";                                                      \
    }, QMH_DIFFERS(member)

#define QMH_BOOL_FIELD(member)                                          \
    [](const ExperimentSpec &s) {                                       \
        return std::string(s.member ? "1" : "0");                       \
    },                                                                  \
    [](ExperimentSpec &s, std::string_view v) -> std::string {          \
        if (v == "1")                                                   \
            s.member = true;                                            \
        else if (v == "0")                                              \
            s.member = false;                                           \
        else                                                            \
            return badValue(#member, v, "0 or 1");                      \
        return "";                                                      \
    }, QMH_DIFFERS(member)

const FieldDef field_defs[] = {
    {"experiment",
     "hierarchy | cache | bandwidth | montecarlo | trace",
     SpecKeyKind::Text,
     [](const ExperimentSpec &s) { return std::string(kindName(s.kind)); },
     [](ExperimentSpec &s, std::string_view v) -> std::string {
         const auto kind = parseKind(v);
         if (!kind)
             return unknownNameDiagnostic("experiment", v,
                                          experimentKindNames());
         s.kind = *kind;
         return "";
     },
     [](const ExperimentSpec &) { return true; }},  // always printed
    {"machine", "technology preset: now | future", SpecKeyKind::Text,
     [](const ExperimentSpec &s) { return s.machine; },
     [](ExperimentSpec &s, std::string_view v) -> std::string {
         if (v != "now" && v != "future")
             return badValue("machine", v, "now | future");
         s.machine = std::string(v);
         return "";
     }, QMH_DIFFERS(machine)},
    {"code", "error-correcting code: steane | bacon-shor",
     SpecKeyKind::Text,
     [](const ExperimentSpec &s) {
         return std::string(codeSpecName(s.code));
     },
     [](ExperimentSpec &s, std::string_view v) -> std::string {
         if (v == "steane")
             s.code = ecc::CodeKind::Steane713;
         else if (v == "bacon-shor")
             s.code = ecc::CodeKind::BaconShor913;
         else
             return badValue("code", v, "steane | bacon-shor");
         return "";
     }, QMH_DIFFERS(code)},
    {"workload", "named generator (see api::workloadRegistry)",
     SpecKeyKind::Text,
     [](const ExperimentSpec &s) { return s.workload; },
     [](ExperimentSpec &s, std::string_view v) -> std::string {
         if (v.empty())
             return badValue("workload", v, "a generator name");
         s.workload = std::string(v);
         return "";
     }, QMH_DIFFERS(workload)},
    {"n", "operand / register width", SpecKeyKind::Int,
     QMH_INT_FIELD(n, 1, 65536)},
    {"gates", "gate count of the random workload", SpecKeyKind::Int,
     QMH_INT_FIELD(gates, 1, 10000000)},
    {"reps", "repeated additions of the modexp workload",
     SpecKeyKind::Int, QMH_INT_FIELD(reps, 1, 10000)},
    {"transfers", "parallel code-transfer channels", SpecKeyKind::Int,
     QMH_INT_FIELD(transfers, 1, 100000)},
    {"blocks", "compute blocks", SpecKeyKind::Int,
     QMH_INT_FIELD(blocks, 1, 1000000)},
    {"mem_banks", "level-2 memory banks (address % banks)",
     SpecKeyKind::Int, QMH_INT_FIELD(mem_banks, 1, 4096)},
    {"mem_ports", "concurrent memory requests in service",
     SpecKeyKind::Int, QMH_INT_FIELD(mem_ports, 1, 4096)},
    {"mem_buffer", "accepted, no effect (bank queues are unbounded FIFOs)",
     SpecKeyKind::Int, QMH_INT_FIELD(mem_buffer, 1, 65536)},
    {"cycles_per_line", "extra bank service ticks per request (one line)",
     SpecKeyKind::Int, QMH_INT_FIELD(cycles_per_line, 0, 1000000000)},
    {"capacity", "cache capacity in qubits (0 = capacity_x * PE)",
     SpecKeyKind::UInt, QMH_U64_FIELD(capacity)},
    {"capacity_x", "auto-capacity multiplier of the PE count",
     SpecKeyKind::Real, QMH_DOUBLE_FIELD(capacity_x)},
    {"policy", "cache fetch policy: inorder | optimized",
     SpecKeyKind::Text,
     [](const ExperimentSpec &s) {
         return std::string(policyName(s.policy));
     },
     [](ExperimentSpec &s, std::string_view v) -> std::string {
         if (v == "inorder")
             s.policy = cache::FetchPolicy::InOrder;
         else if (v == "optimized")
             s.policy = cache::FetchPolicy::OptimizedLookahead;
         else
             return badValue("policy", v, "inorder | optimized");
         return "";
     }, QMH_DIFFERS(policy)},
    {"warm", "warm-start the cache (0 | 1)", SpecKeyKind::Bool,
     QMH_BOOL_FIELD(warm)},
    {"mask_data", "cache only an adder's data registers (0 | 1)",
     SpecKeyKind::Bool, QMH_BOOL_FIELD(mask_data)},
    {"level", "concatenation level", SpecKeyKind::Int,
     QMH_INT_FIELD(level, 1, 8)},
    {"utilization", "busy-block fraction (bandwidth demand)",
     SpecKeyKind::Real, QMH_DOUBLE_FIELD(utilization)},
    {"p0", "physical error rate (montecarlo)", SpecKeyKind::Real,
     QMH_DOUBLE_FIELD(p0)},
    {"trials", "Monte-Carlo trials", SpecKeyKind::UInt,
     QMH_U64_FIELD(trials)},
    {"noise_factor", "EC-circuit noise multiplier", SpecKeyKind::Real,
     QMH_DOUBLE_FIELD(noise_factor)},
};

#undef QMH_DIFFERS
#undef QMH_INT_FIELD
#undef QMH_U64_FIELD
#undef QMH_DOUBLE_FIELD
#undef QMH_BOOL_FIELD

const FieldDef *
findField(std::string_view key)
{
    for (const auto &field : field_defs)
        if (key == field.key)
            return &field;
    return nullptr;
}

} // namespace

const char *
kindName(ExperimentKind kind)
{
    switch (kind) {
      case ExperimentKind::Hierarchy:  return "hierarchy";
      case ExperimentKind::Cache:      return "cache";
      case ExperimentKind::Bandwidth:  return "bandwidth";
      case ExperimentKind::MonteCarlo: return "montecarlo";
      case ExperimentKind::Trace:      return "trace";
    }
    // qmh-lint: allow(typed-errors): exhaustive-switch guard — an out-of-range enum is memory corruption, not a request failure
    qmh_panic("kindName: bad ExperimentKind ",
              static_cast<int>(kind));
}

std::optional<ExperimentKind>
parseKind(std::string_view name)
{
    if (name == "hierarchy")
        return ExperimentKind::Hierarchy;
    if (name == "cache")
        return ExperimentKind::Cache;
    if (name == "bandwidth")
        return ExperimentKind::Bandwidth;
    if (name == "montecarlo")
        return ExperimentKind::MonteCarlo;
    if (name == "trace")
        return ExperimentKind::Trace;
    return std::nullopt;
}

const std::vector<std::string> &
experimentKindNames()
{
    static const std::vector<std::string> names = {
        "hierarchy", "cache", "bandwidth", "montecarlo", "trace"};
    return names;
}

namespace {

/** Levenshtein distance, for did-you-mean suggestions. */
std::size_t
editDistance(std::string_view a, std::string_view b)
{
    std::vector<std::size_t> row(b.size() + 1);
    for (std::size_t j = 0; j <= b.size(); ++j)
        row[j] = j;
    for (std::size_t i = 1; i <= a.size(); ++i) {
        std::size_t diagonal = row[0];
        row[0] = i;
        for (std::size_t j = 1; j <= b.size(); ++j) {
            const auto previous = row[j];
            const std::size_t substitute =
                diagonal + (a[i - 1] == b[j - 1] ? 0 : 1);
            row[j] = std::min({row[j] + 1, row[j - 1] + 1, substitute});
            diagonal = previous;
        }
    }
    return row[b.size()];
}

} // namespace

std::string
unknownNameDiagnostic(std::string_view what, std::string_view name,
                      const std::vector<std::string> &valid)
{
    std::string message = "unknown " + std::string(what) + " '" +
                          std::string(name) + "'; valid " +
                          std::string(what) + " names: ";
    for (std::size_t i = 0; i < valid.size(); ++i) {
        if (i)
            message += ", ";
        message += valid[i];
    }
    const std::string *nearest = nullptr;
    std::size_t best = std::string::npos;
    for (const auto &candidate : valid) {
        const auto distance = editDistance(name, candidate);
        if (distance < best) {
            best = distance;
            nearest = &candidate;
        }
    }
    // Only suggest when the typo is plausibly a typo: within three
    // edits and closer than rewriting the whole name.
    if (nearest && best <= 3 && best < nearest->size())
        message += " (did you mean '" + *nearest + "'?)";
    return message;
}

iontrap::Params
ExperimentSpec::params() const
{
    if (machine == "now")
        return iontrap::Params::currentTechnology();
    if (machine == "future")
        return iontrap::Params::future();
    // qmh-lint: allow(typed-errors): unreachable after validate() — it re-parses every non-default key, machine included
    qmh_panic("ExperimentSpec: unknown machine preset '", machine, "'");
}

const std::vector<std::string> &
specKeys()
{
    static const std::vector<std::string> keys = [] {
        std::vector<std::string> out;
        for (const auto &field : field_defs)
            out.emplace_back(field.key);
        return out;
    }();
    return keys;
}

const char *
specKeyHelp(std::string_view key)
{
    const auto *field = findField(key);
    return field ? field->help : nullptr;
}

std::optional<SpecKeyKind>
specKeyKind(std::string_view key)
{
    const auto *field = findField(key);
    if (!field)
        return std::nullopt;
    return field->kind;
}

std::string
specSet(ExperimentSpec &spec, std::string_view key,
        std::string_view value)
{
    const auto *field = findField(key);
    if (!field)
        // The full key list plus a did-you-mean suggestion: a typoed
        // knob (mem_bank for mem_banks) fails with the fix in hand.
        return unknownNameDiagnostic("spec key", key, specKeys());
    return field->set(spec, value);
}

std::string
printSpec(const ExperimentSpec &spec)
{
    std::string out;
    for (const auto &field : field_defs) {
        if (!field.differs(spec))
            continue;
        if (!out.empty())
            out += ' ';
        out += field.key;
        out += '=';
        out += field.get(spec);
    }
    return out;
}

SpecParseResult
parseSpec(std::string_view text)
{
    std::vector<std::string> tokens;
    std::size_t pos = 0;
    while (pos < text.size()) {
        while (pos < text.size() &&
               (text[pos] == ' ' || text[pos] == '\t' ||
                text[pos] == '\n' || text[pos] == '\r'))
            ++pos;
        std::size_t end = pos;
        while (end < text.size() && text[end] != ' ' &&
               text[end] != '\t' && text[end] != '\n' &&
               text[end] != '\r')
            ++end;
        if (end > pos)
            tokens.emplace_back(text.substr(pos, end - pos));
        pos = end;
    }
    return parseSpecTokens(tokens);
}

SpecParseResult
parseSpecTokens(const std::vector<std::string> &tokens)
{
    SpecParseResult result;
    for (const auto &token : tokens) {
        const auto eq = token.find('=');
        if (eq == std::string::npos || eq == 0) {
            result.errors.push_back("'" + token +
                                    "' is not key=value");
            continue;
        }
        const auto error =
            specSet(result.spec, std::string_view(token).substr(0, eq),
                    std::string_view(token).substr(eq + 1));
        if (!error.empty())
            result.errors.push_back(error);
    }
    return result;
}

std::optional<std::int64_t>
parseInt(std::string_view text)
{
    std::int64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size())
        return std::nullopt;
    return value;
}

std::optional<std::uint64_t>
parseUInt(std::string_view text)
{
    std::uint64_t value = 0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size())
        return std::nullopt;
    return value;
}

std::optional<double>
parseDouble(std::string_view text)
{
    double value = 0.0;
    const auto [ptr, ec] =
        std::from_chars(text.data(), text.data() + text.size(), value);
    if (ec != std::errc() || ptr != text.data() + text.size())
        return std::nullopt;
    return value;
}

} // namespace api
} // namespace qmh

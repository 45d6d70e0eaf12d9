/**
 * @file
 * qmh-lint: project-specific static analysis enforcing the
 * determinism, typed-error and architecture contracts.
 *
 * The reproduction's central promise — bit-identical rows for a given
 * (spec, seed) on any thread count, across processes and the result
 * cache — rests on invariants the compiler cannot see. The analyzer
 * has two tiers:
 *
 * Per-file token rules (a comment/string-stripping tokenizer plus
 * pattern matching; lintText/lintFile):
 *
 *  - no-wallclock       simulation code never reads a clock or an
 *                       entropy source (std::chrono::*_clock::now,
 *                       time(), std::random_device, ...);
 *  - no-raw-rand        all randomness flows through the seeded
 *                       qmh::Random (no std::rand, no naked std
 *                       engines such as std::mt19937);
 *  - ordered-iteration  no range-for over std::unordered_map/set in
 *                       code that emits rows, persists caches or
 *                       builds schedules — hash order must never
 *                       reach an output channel;
 *  - typed-errors       src/api and src/server request paths return
 *                       Outcome instead of panicking/throwing/exiting;
 *  - banned-headers     headers that exist only to break the rules
 *                       above (<ctime>, <random>, ...) stay out;
 *  - lock-discipline    src/api, src/opt, src/server and src/sweep
 *                       never make a blocking call (poll/read/write/
 *                       wait/simulate/->run()) while a lock_guard /
 *                       unique_lock / scoped_lock is live in an
 *                       enclosing scope (condition-variable waits ON
 *                       the lock are the sanctioned exception).
 *
 * Whole-tree passes (lintTree only — they need every file's facts):
 *
 *  - layering           the #include graph over the src/ modules
 *                       respects the declared layer policy: no upward
 *                       includes, no forbidden cross-layer skips, no
 *                       include cycles;
 *  - unchecked-outcome  a call to any function the tree declares as
 *                       returning Outcome<...> is never discarded as
 *                       a bare expression-statement.
 *
 * The tree engine lints files one after another in sorted-path order,
 * so the report is deterministic, and reports can be emitted as
 * SARIF 2.1.0 for CI code-scanning annotations.
 *
 * Every rule is heuristic, so each supports inline suppression:
 *
 *     // qmh-lint: allow(<rule-id>): <one-line justification>
 *
 * placed on the offending line or alone on the line above. The
 * justification is mandatory (bad-suppression otherwise) and a
 * suppression that matches nothing is itself reported
 * (unused-suppression), so stale allowances expire loudly.
 */

#ifndef QMH_TOOLS_LINT_HH
#define QMH_TOOLS_LINT_HH

#include <cstddef>
#include <string>
#include <string_view>
#include <vector>

namespace qmh {
namespace lint {

/** One finding, addressed as file:line with a stable rule id. */
struct Diagnostic
{
    std::string file;     ///< path as given to the linter
    int line = 0;         ///< 1-based line of the finding
    std::string rule;     ///< stable rule id ("no-wallclock", ...)
    std::string message;  ///< what was found
    std::string hint;     ///< how to fix (or legitimately suppress) it

    /** "file:line: [rule] message (hint)" */
    std::string format() const;
};

/** Result of linting one file or a whole tree. */
struct Report
{
    std::vector<Diagnostic> diagnostics;
    std::size_t files_scanned = 0;  ///< files visited this run

    bool clean() const { return diagnostics.empty(); }
};

/** Stable ids of every rule, in documentation order. */
const std::vector<std::string> &ruleNames();

/** One-line description of @p rule; nullptr for unknown ids. */
const char *ruleDescription(std::string_view rule);

/**
 * Lint @p text as if it were the file @p policy_path, per-file rules
 * only. The path picks the per-directory policy (typed-errors only
 * under src/api/ and src/server/, lock-discipline under src/api/,
 * src/opt/, src/server/ and src/sweep/, no-raw-rand waived inside
 * the sanctioned src/common/random home), so tests can label fixture
 * content into any policy domain. Whole-tree rules (layering,
 * unchecked-outcome) need every file's facts and only run under
 * lintTree.
 */
Report lintText(std::string_view policy_path, std::string_view text);

/**
 * Lint one file from disk (policy from its path), per-file rules
 * only. For a .cc/.cpp the companion header (same stem, .hh or .h)
 * is also scanned for unordered-container member names, so a map
 * declared in foo.hh and range-for'd in foo.cc is still caught by
 * ordered-iteration.
 */
Report lintFile(const std::string &path);

/** Options for whole-tree analysis. */
struct TreeOptions
{
    /** Layer policy text (see defaultLayerPolicy() for the format);
     * empty = the built-in policy over the src/ modules. */
    std::string layer_policy;
};

/**
 * The built-in layer policy. Format, line by line ('#' comments):
 *
 *     layer <module>...    one tier per line, bottom tier first; a
 *                          module may include its own tier and any
 *                          tier below it
 *     forbid <from>: <to>...  ban specific downward skip edges (the
 *                          facade-bypass discipline)
 *
 * Upward includes, forbidden edges and include cycles among the
 * declared modules are "layering" findings.
 */
const char *defaultLayerPolicy();

/**
 * Recursively lint every C++ source under @p roots (.cc/.hh/.cpp/.h):
 * the per-file rules plus the whole-tree passes (layering over the
 * include graph, unchecked-outcome over the Outcome function index).
 * Directories named "lint_fixtures" are skipped: fixtures contain
 * intentional violations and are linted explicitly by the self-tests.
 * Files are analyzed in sorted path order, so the report is
 * deterministic.
 */
Report lintTree(const std::vector<std::string> &roots,
                const TreeOptions &options);

/** lintTree under the built-in layer policy. */
Report lintTree(const std::vector<std::string> &roots);

/**
 * The report as a SARIF 2.1.0 document (one run, one result per
 * diagnostic, rule metadata from the registry) for CI code-scanning
 * upload. Deterministic: same report, same bytes.
 */
std::string toSarif(const Report &report);

} // namespace lint
} // namespace qmh

#endif // QMH_TOOLS_LINT_HH

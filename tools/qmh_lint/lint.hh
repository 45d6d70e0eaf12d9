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
 *                       respects the compiled-in layer table: no
 *                       upward includes, no forbidden cross-layer
 *                       skips, no include cycles;
 *  - unreachable-module every src/ module (a header and its same-stem
 *                       .cc) is reached through includes from an
 *                       entry point;
 *  - test-only-api      every function a src/ header declares is
 *                       named, apart from its own declarations and
 *                       definitions, under src/ or in an entry point.
 *
 * The two reach passes count only entry points: the files under
 * examples/, bench/, perfbench/ and tools/ next to the linted src/
 * root. perfbench/ and tools/ (and src/ files outside the roots) are
 * read for includes and identifiers only, never linted. Tests never
 * count as a reach. Use is by name, so a name two declarations share
 * is reached when either one is. A src/ root with no entry directory
 * next to it is not judged.
 *
 * The tree engine lints files one after another in sorted-path order,
 * so the report is deterministic, and reports can be emitted as
 * SARIF 2.1.0 for CI code-scanning annotations.
 *
 * A discarded api::Outcome is not a lint rule: the class is
 * [[nodiscard]] and the build compiles with -Werror=unused-result, so
 * the compiler rejects it in every file it builds.
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
 * unreachable-module, test-only-api) need every file's facts and only
 * run under lintTree.
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

/**
 * The compiled-in layer policy over the src/ modules, as text ('#'
 * comments):
 *
 *     layer <module>...    one tier per line, bottom tier first; a
 *                          module may include its own tier and any
 *                          tier below it
 *     forbid <from>: <to>...  banned downward skip edges (the
 *                          facade-bypass discipline)
 *
 * Upward includes, forbidden edges and include cycles among the
 * declared modules are "layering" findings; modules the table does
 * not declare are out of scope.
 */
std::string layerPolicyText();

/**
 * Recursively lint every C++ source under @p roots (.cc/.hh/.cpp/.h):
 * the per-file rules plus the whole-tree passes (layering over the
 * include graph, unreachable-module and test-only-api over
 * entry-point reach). Directories named "lint_fixtures" are skipped:
 * fixtures contain intentional violations and are linted explicitly
 * by the self-tests. Files are analyzed in sorted path order, so the
 * report is deterministic.
 */
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

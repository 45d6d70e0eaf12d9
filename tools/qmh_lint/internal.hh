/**
 * @file
 * qmh-lint internals: the seam between the per-file engine (lint.cc —
 * scrubber, tokenizer, token rules, fact extraction) and the
 * whole-tree engine (tree.cc — the file walk, layering and
 * unchecked-outcome).
 *
 * The unit of work is FileFacts: everything the tree passes need from
 * one file, extracted in a single scrub+tokenize visit. Cross-file
 * analysis happens later, over the facts alone, in sorted path order.
 */

#ifndef QMH_TOOLS_LINT_INTERNAL_HH
#define QMH_TOOLS_LINT_INTERNAL_HH

#include <string>
#include <string_view>
#include <vector>

#include "qmh_lint/lint.hh"

namespace qmh {
namespace lint {
namespace detail {

/** One `#include "..."` directive (quoted form only — the module
 * graph is over project headers; system includes are the
 * banned-headers rule's business). */
struct IncludeEdge
{
    std::string header;  ///< as written, e.g. "api/spec.hh"
    int line = 0;
};

/** A call discarded as a bare expression-statement: `foo(...);` with
 * no use of the result. Candidates only — the tree pass intersects
 * them with the global Outcome-function index. */
struct BareCall
{
    std::string name;  ///< callee identifier (last of any ::-chain)
    int line = 0;
};

/** An `allow(rule)` marker for a whole-tree rule, deferred to the
 * tree pass (only it can tell used from stale). */
struct TreeSuppression
{
    std::string rule;
    int comment_line = 0;
    int target_line = 0;
};

/** Everything the whole-tree passes need from one file. */
struct FileFacts
{
    std::string path;

    /** Per-file rule findings, suppression-resolved. */
    std::vector<Diagnostic> local_diags;

    std::vector<IncludeEdge> includes;
    /** Function names declared returning Outcome<...>. */
    std::vector<std::string> outcome_decls;
    /** Function names declared with any other return type — used to
     * drop ambiguous names (declared both ways somewhere in the
     * tree) from the unchecked-outcome index, because a token-level
     * call site cannot type its receiver. */
    std::vector<std::string> plain_decls;
    std::vector<BareCall> bare_calls;
    std::vector<TreeSuppression> tree_suppressions;

    bool io_error = false;  ///< file could not be read
};

/** Canonical report order: (file, line, rule, message), deduped. */
void sortUniqueDiagnostics(std::vector<Diagnostic> &diagnostics);

/**
 * Extract facts from @p text as the file @p policy_path.
 * @p header_names seeds ordered-iteration with unordered-container
 * members declared in the companion header.
 */
FileFacts analyzeText(std::string_view policy_path,
                      std::string_view text,
                      const std::vector<std::string> &header_names);

/** analyzeText over a file from disk, companion header included.
 * Unreadable files come back with io_error set and an "io-error"
 * diagnostic. */
FileFacts analyzeFile(const std::string &path);

} // namespace detail
} // namespace lint
} // namespace qmh

#endif // QMH_TOOLS_LINT_INTERNAL_HH

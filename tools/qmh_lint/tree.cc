/**
 * @file
 * The whole-tree lint engine: one sequential fact-extraction pass
 * over the sorted file list, then the two cross-file passes
 * (layering over the module include graph, unchecked-outcome over
 * the Outcome function index).
 *
 * Determinism: files are sorted before analysis, every cross-file
 * pass iterates facts in that order, and the merged diagnostics get
 * one final canonical sort.
 */

#include "qmh_lint/lint.hh"

#include <algorithm>
#include <filesystem>
#include <map>
#include <set>
#include <sstream>
#include <utility>

#include "qmh_lint/internal.hh"

namespace qmh {
namespace lint {

namespace {

// ---------------------------------------------------------------------------
// Module names
// ---------------------------------------------------------------------------

/**
 * The module a file belongs to: the path component right after the
 * last "src/" component ("src/api/spec.cc" -> "api"). Empty for files
 * outside any src/ tree (tests, benches, tools) — they are linted by
 * the per-file rules but take no part in the module graph.
 */
std::string
moduleOf(const std::string &path)
{
    std::size_t pos = std::string::npos;
    std::size_t search = 0;
    while (true) {
        const auto hit = path.find("src/", search);
        if (hit == std::string::npos)
            break;
        if (hit == 0 || path[hit - 1] == '/')
            pos = hit;
        search = hit + 1;
    }
    if (pos == std::string::npos)
        return "";
    const std::size_t mod_begin = pos + 4;
    const auto slash = path.find('/', mod_begin);
    if (slash == std::string::npos)
        return "";  // a file directly in src/ belongs to no module
    return path.substr(mod_begin, slash - mod_begin);
}

/** Module a quoted include names: "api/spec.hh" -> "api". Includes
 * are resolved against -Isrc, so the first component IS the module. */
std::string
includeModule(const std::string &header)
{
    const auto slash = header.find('/');
    if (slash == std::string::npos || slash == 0)
        return "";
    return header.substr(0, slash);
}

// ---------------------------------------------------------------------------
// Layer policy
// ---------------------------------------------------------------------------

struct LayerPolicy
{
    std::map<std::string, int> tier;  ///< module -> tier (0 = bottom)
    std::set<std::pair<std::string, std::string>> forbidden;
    std::vector<Diagnostic> errors;   ///< parse problems, as findings
};

void
splitWords(const std::string &text, std::vector<std::string> &words)
{
    std::istringstream in(text);
    std::string word;
    while (in >> word)
        words.push_back(word);
}

LayerPolicy
parseLayerPolicy(std::string_view text)
{
    LayerPolicy policy;
    int tier_count = 0;
    int line_no = 0;
    std::size_t begin = 0;
    while (begin <= text.size()) {
        auto end = text.find('\n', begin);
        if (end == std::string_view::npos)
            end = text.size();
        std::string line(text.substr(begin, end - begin));
        ++line_no;
        const bool last = end == text.size();
        begin = end + 1;

        const auto hash = line.find('#');
        if (hash != std::string::npos)
            line.resize(hash);
        std::vector<std::string> words;
        splitWords(line, words);
        auto bad = [&](const std::string &why) {
            policy.errors.push_back(
                {"<layer-policy>", line_no, "layering", why,
                 "policy lines: 'layer <module>...' (bottom tier "
                 "first) or 'forbid <from>: <to>...'"});
        };
        if (words.empty()) {
            if (last)
                break;
            continue;
        }
        if (words[0] == "layer") {
            if (words.size() < 2) {
                bad("'layer' line declares no modules");
            } else {
                for (std::size_t i = 1; i < words.size(); ++i) {
                    if (!policy.tier.emplace(words[i], tier_count)
                             .second)
                        bad("module '" + words[i] +
                            "' declared in two layers");
                }
                ++tier_count;
            }
        } else if (words[0] == "forbid") {
            const auto colon = line.find(':');
            if (colon == std::string::npos) {
                bad("'forbid' line needs '<from>: <to>...'");
            } else {
                std::vector<std::string> from_words;
                splitWords(line.substr(6, colon - 6), from_words);
                std::vector<std::string> to_words;
                splitWords(line.substr(colon + 1), to_words);
                if (from_words.size() != 1 || to_words.empty()) {
                    bad("'forbid' line needs '<from>: <to>...'");
                } else {
                    auto declared = [&](const std::string &m) {
                        if (policy.tier.count(m))
                            return true;
                        bad("forbid names undeclared module '" + m +
                            "'");
                        return false;
                    };
                    if (declared(from_words[0]))
                        for (const auto &to : to_words)
                            if (declared(to))
                                policy.forbidden.emplace(
                                    from_words[0], to);
                }
            }
        } else {
            bad("unknown directive '" + words[0] + "'");
        }
        if (last)
            break;
    }
    return policy;
}

// ---------------------------------------------------------------------------
// Tree suppressions
// ---------------------------------------------------------------------------

/** Deferred allow(layering)/allow(unchecked-outcome) markers, matched
 * here because only the tree passes know the findings. */
struct TreeSuppressions
{
    struct Entry
    {
        detail::TreeSuppression marker;
        bool used = false;
    };
    std::map<std::string, std::vector<Entry>> by_path;

    void
    collect(const std::vector<detail::FileFacts> &all)
    {
        for (const auto &facts : all)
            for (const auto &marker : facts.tree_suppressions)
                by_path[facts.path].push_back({marker, false});
    }

    /** True (and marks the marker used) when (path, rule, line) is
     * covered by an allow(). */
    bool
    covers(const std::string &path, std::string_view rule, int line)
    {
        auto it = by_path.find(path);
        if (it == by_path.end())
            return false;
        bool hit = false;
        for (auto &entry : it->second)
            if (entry.marker.rule == rule &&
                entry.marker.target_line == line) {
                entry.used = true;
                hit = true;
            }
        return hit;
    }

    /** Marks every marker for `rule` as used without matching a
     * finding. Called when a pass is skipped (broken layer policy):
     * markers it would have judged are unjudgeable, not stale. */
    void
    excuseRule(std::string_view rule)
    {
        for (auto &[path, entries] : by_path)
            for (auto &entry : entries)
                if (entry.marker.rule == rule)
                    entry.used = true;
    }

    /** Stale markers become unused-suppression findings, same as the
     * per-file rules. Iterates facts (sorted) for determinism. */
    void
    reportUnused(const std::vector<detail::FileFacts> &all,
                 std::vector<Diagnostic> &diagnostics)
    {
        for (const auto &facts : all) {
            auto it = by_path.find(facts.path);
            if (it == by_path.end())
                continue;
            for (const auto &entry : it->second) {
                if (entry.used)
                    continue;
                diagnostics.push_back(
                    {facts.path, entry.marker.comment_line,
                     "unused-suppression",
                     "allow(" + entry.marker.rule +
                         ") suppressed nothing",
                     "the finding it covered is gone — delete the "
                     "marker"});
            }
        }
    }
};

// ---------------------------------------------------------------------------
// Pass: layering
// ---------------------------------------------------------------------------

void
passLayering(const std::vector<detail::FileFacts> &all,
             const LayerPolicy &policy, TreeSuppressions &suppressions,
             std::vector<Diagnostic> &diagnostics)
{
    constexpr const char *rule = "layering";
    diagnostics.insert(diagnostics.end(), policy.errors.begin(),
                       policy.errors.end());
    if (!policy.errors.empty()) {
        // A broken policy cannot judge the graph, so it cannot judge
        // the graph's suppressions either.
        suppressions.excuseRule(rule);
        return;
    }

    // Peer (same-tier) edges feed cycle detection. Strictly downward
    // edges cannot close a cycle without an upward edge somewhere,
    // and every upward edge is already a finding of its own.
    struct Site
    {
        std::string file;
        int line;
    };
    std::map<std::pair<std::string, std::string>, Site> peer_edges;

    for (const auto &facts : all) {
        const auto from = moduleOf(facts.path);
        const auto from_it = policy.tier.find(from);
        if (from_it == policy.tier.end())
            continue;
        for (const auto &include : facts.includes) {
            const auto to = includeModule(include.header);
            if (to == from)
                continue;
            const auto to_it = policy.tier.find(to);
            if (to_it == policy.tier.end())
                continue;
            if (to_it->second > from_it->second) {
                if (!suppressions.covers(facts.path, rule,
                                         include.line))
                    diagnostics.push_back(
                        {facts.path, include.line, rule,
                         "upward dependency: '" + from + "' (tier " +
                             std::to_string(from_it->second) +
                             ") includes \"" + include.header +
                             "\" from '" + to + "' (tier " +
                             std::to_string(to_it->second) + ")",
                         "a lower layer must not know the one above "
                         "it — move the shared type down or invert "
                         "the dependency"});
                continue;
            }
            if (policy.forbidden.count({from, to})) {
                if (!suppressions.covers(facts.path, rule,
                                         include.line))
                    diagnostics.push_back(
                        {facts.path, include.line, rule,
                         "facade bypass: '" + from +
                             "' must not include \"" +
                             include.header + "\" ('" + to +
                             "' is forbidden by the layer policy)",
                         "route through the api/sweep facade "
                         "instead of reaching into the engines"});
                continue;
            }
            if (to_it->second == from_it->second)
                peer_edges.emplace(std::make_pair(from, to),
                                   Site{facts.path, include.line});
        }
    }

    // Cycle detection over the peer-edge graph (deterministic: module
    // names and adjacency both iterate in sorted order).
    std::map<std::string, std::vector<std::string>> adjacency;
    for (const auto &[edge, site] : peer_edges)
        adjacency[edge.first].push_back(edge.second);

    std::map<std::string, int> color;  // 0 white, 1 gray, 2 black
    std::vector<std::string> stack;
    auto dfs = [&](auto &&self, const std::string &module) -> void {
        color[module] = 1;
        stack.push_back(module);
        for (const auto &next : adjacency[module]) {
            if (color[next] == 2)
                continue;
            if (color[next] == 1) {
                // Back edge module -> next closes a cycle; name the
                // whole loop and anchor the finding on the closing
                // include.
                std::string path;
                for (auto it = std::find(stack.begin(), stack.end(),
                                         next);
                     it != stack.end(); ++it)
                    path += *it + " -> ";
                path += next;
                const auto &site = peer_edges.at({module, next});
                if (!suppressions.covers(site.file, rule, site.line))
                    diagnostics.push_back(
                        {site.file, site.line, rule,
                         "include cycle among peer modules: " + path,
                         "one side must own the shared interface — "
                         "break the loop or merge the modules"});
                continue;
            }
            self(self, next);
        }
        stack.pop_back();
        color[module] = 2;
    };
    for (const auto &[module, targets] : adjacency)
        if (color[module] == 0)
            dfs(dfs, module);
}

// ---------------------------------------------------------------------------
// Pass: unchecked-outcome
// ---------------------------------------------------------------------------

void
passUncheckedOutcome(const std::vector<detail::FileFacts> &all,
                     TreeSuppressions &suppressions,
                     std::vector<Diagnostic> &diagnostics)
{
    constexpr const char *rule = "unchecked-outcome";

    // The index: names declared in src/ modules to return
    // Outcome<...>, minus any name also declared with another return
    // type (a token-level call site cannot type its receiver, so
    // ambiguous names — the thread pool's submit vs Session::submit
    // — are left to the [[nodiscard]] attribute and the compiler).
    std::set<std::string> outcome_names;
    std::set<std::string> plain_names;
    for (const auto &facts : all) {
        if (moduleOf(facts.path).empty())
            continue;
        outcome_names.insert(facts.outcome_decls.begin(),
                             facts.outcome_decls.end());
        plain_names.insert(facts.plain_decls.begin(),
                           facts.plain_decls.end());
    }
    std::set<std::string> index;
    for (const auto &name : outcome_names)
        if (!plain_names.count(name))
            index.insert(name);

    for (const auto &facts : all) {
        if (moduleOf(facts.path).empty())
            continue;
        for (const auto &call : facts.bare_calls) {
            if (!index.count(call.name))
                continue;
            if (suppressions.covers(facts.path, rule, call.line))
                continue;
            diagnostics.push_back(
                {facts.path, call.line, rule,
                 "discards the Outcome<...> returned by '" +
                     call.name + "' — a dropped Outcome drops its "
                                 "failure with it",
                 "check ok()/error() (or bind the value); if the "
                 "result truly does not matter, suppress with the "
                 "reason"});
        }
    }
}

// ---------------------------------------------------------------------------
// File discovery
// ---------------------------------------------------------------------------

std::vector<std::string>
collectFiles(const std::vector<std::string> &roots,
             std::vector<std::string> &missing_roots)
{
    namespace fs = std::filesystem;
    std::vector<std::string> files;
    auto wanted = [](const fs::path &p) {
        const auto ext = p.extension().string();
        return ext == ".cc" || ext == ".hh" || ext == ".cpp" ||
               ext == ".h";
    };
    for (const auto &root : roots) {
        if (fs::is_regular_file(root)) {
            files.push_back(root);
            continue;
        }
        if (!fs::is_directory(root)) {
            // A typo'd root must never read as a clean tree.
            missing_roots.push_back(root);
            continue;
        }
        for (auto it = fs::recursive_directory_iterator(root);
             it != fs::recursive_directory_iterator(); ++it) {
            const auto name = it->path().filename().string();
            if (it->is_directory() &&
                (name == "lint_fixtures" || name == "build" ||
                 (!name.empty() && name[0] == '.'))) {
                it.disable_recursion_pending();
                continue;
            }
            if (it->is_regular_file() && wanted(it->path()))
                files.push_back(it->path().string());
        }
    }
    std::sort(files.begin(), files.end());
    files.erase(std::unique(files.begin(), files.end()), files.end());
    return files;
}

} // namespace

// ---------------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------------

const char *
defaultLayerPolicy()
{
    return
        "# qmh architecture layers, bottom tier first. A module may\n"
        "# include its own tier and any tier below it.\n"
        "layer common\n"
        "layer circuit sched sim cache iontrap gen\n"
        "layer cqla ecc net trace\n"
        "layer api sweep\n"
        "layer opt server\n"
        "# Facade-bypass discipline: the top tier talks to the\n"
        "# system through api/sweep, never straight into the\n"
        "# engines.\n"
        "forbid opt: circuit sched sim cache iontrap gen cqla ecc "
        "net trace\n"
        "forbid server: circuit sched sim cache iontrap gen cqla "
        "ecc net trace\n"
        "forbid sweep: circuit sched sim cache iontrap gen cqla ecc "
        "net trace\n";
}

Report
lintTree(const std::vector<std::string> &roots,
         const TreeOptions &options)
{
    std::vector<std::string> missing_roots;
    const auto files = collectFiles(roots, missing_roots);

    Report report;
    for (const auto &root : missing_roots)
        report.diagnostics.push_back(
            {root, 0, "io-error", "no such file or directory", ""});
    std::vector<detail::FileFacts> all;
    all.reserve(files.size());
    for (const auto &file : files) {
        const auto &facts = all.emplace_back(detail::analyzeFile(file));
        if (!facts.io_error)
            ++report.files_scanned;
        report.diagnostics.insert(report.diagnostics.end(),
                                  facts.local_diags.begin(),
                                  facts.local_diags.end());
    }

    TreeSuppressions suppressions;
    suppressions.collect(all);
    const auto policy = parseLayerPolicy(
        options.layer_policy.empty() ? defaultLayerPolicy()
                                     : options.layer_policy.c_str());
    passLayering(all, policy, suppressions, report.diagnostics);
    passUncheckedOutcome(all, suppressions, report.diagnostics);
    suppressions.reportUnused(all, report.diagnostics);

    detail::sortUniqueDiagnostics(report.diagnostics);
    return report;
}

Report
lintTree(const std::vector<std::string> &roots)
{
    return lintTree(roots, TreeOptions{});
}

} // namespace lint
} // namespace qmh

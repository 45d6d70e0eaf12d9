/**
 * @file
 * The whole-tree lint engine: one sequential fact-extraction pass
 * over the sorted file list, then the cross-file passes (layering
 * over the module include graph against the compiled-in layer table,
 * and the two reach passes from the entry points).
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
#include <utility>

#include "qmh_lint/internal.hh"

namespace qmh {
namespace lint {

namespace {

// ---------------------------------------------------------------------------
// Module names
// ---------------------------------------------------------------------------

/** Offset of the last "src/" path component of @p path; npos when
 * the file lies outside any src/ tree. */
std::size_t
srcComponent(const std::string &path)
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
    return pos;
}

/**
 * The module a file belongs to: the path component right after the
 * last "src/" component ("src/api/spec.cc" -> "api"). Empty for files
 * outside any src/ tree (tests, benches, tools) — they are linted by
 * the per-file rules but take no part in the module graph.
 */
std::string
moduleOf(const std::string &path)
{
    const std::size_t pos = srcComponent(path);
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

/** The src/ module tiers, bottom first. A module may include its own
 * tier and any tier below it. */
const std::vector<std::vector<std::string>> layer_tiers = {
    {"common"},
    {"circuit", "sched", "sim", "cache", "iontrap", "gen"},
    {"cqla", "ecc", "net", "trace"},
    {"api", "sweep"},
    {"opt", "server"},
};

/** The engine modules: tiers 1 and 2. */
const std::vector<std::string> engines = {
    "circuit", "sched", "sim", "cache", "iontrap",
    "gen",     "cqla",  "ecc", "net",   "trace"};

/** Downward skips the tiers alone would allow (the facade-bypass
 * discipline): opt, server and sweep reach the engines only through
 * the api facade. */
const std::pair<std::string, std::vector<std::string>> forbid_rows[] = {
    {"opt", engines},
    {"server", engines},
    {"sweep", engines},
};

/** Tier of @p module, 0 = bottom; -1 for a module the table does not
 * declare (the policy governs the src/ tree, not arbitrary code). */
int
tierOf(const std::string &module)
{
    for (std::size_t t = 0; t < layer_tiers.size(); ++t)
        if (std::ranges::find(layer_tiers[t], module) !=
            layer_tiers[t].end())
            return static_cast<int>(t);
    return -1;
}

bool
isForbidden(const std::string &from, const std::string &to)
{
    for (const auto &[row_from, row_to] : forbid_rows)
        if (row_from == from &&
            std::ranges::find(row_to, to) != row_to.end())
            return true;
    return false;
}

// ---------------------------------------------------------------------------
// Tree suppressions
// ---------------------------------------------------------------------------

/** Deferred allow() markers of the whole-tree rules, matched
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
             TreeSuppressions &suppressions,
             std::vector<Diagnostic> &diagnostics)
{
    constexpr const char *rule = "layering";

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
        const int from_tier = tierOf(from);
        if (from_tier < 0)
            continue;
        for (const auto &include : facts.includes) {
            const auto to = includeModule(include.header);
            if (to == from)
                continue;
            const int to_tier = tierOf(to);
            if (to_tier < 0)
                continue;
            if (to_tier > from_tier) {
                if (!suppressions.covers(facts.path, rule,
                                         include.line))
                    diagnostics.push_back(
                        {facts.path, include.line, rule,
                         "upward dependency: '" + from + "' (tier " +
                             std::to_string(from_tier) +
                             ") includes \"" + include.header +
                             "\" from '" + to + "' (tier " +
                             std::to_string(to_tier) + ")",
                         "a lower layer must not know the one above "
                         "it — move the shared type down or invert "
                         "the dependency"});
                continue;
            }
            if (isForbidden(from, to)) {
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
            if (to_tier == from_tier)
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

// ---------------------------------------------------------------------------
// Passes: unreachable-module and test-only-api
// ---------------------------------------------------------------------------

/** The directories next to a src/ root whose files are entry points:
 * the programs built from the library. tests/ is deliberately not one
 * of them — a module or a function only a test reaches ships unused. */
constexpr const char *entry_dirs[] = {"examples", "bench", "perfbench",
                                      "tools"};

std::string
normalPath(const std::filesystem::path &path)
{
    return std::filesystem::absolute(path).lexically_normal()
        .generic_string();
}

bool
isHeader(const std::string &path)
{
    const auto ext = std::filesystem::path(path).extension();
    return ext == ".hh" || ext == ".h";
}

/** A file the reach passes read, keyed by its normalized path. Only
 * linted files can carry findings; the others (entry directories and
 * src/ files outside the roots) are read for includes and identifiers
 * alone. */
struct ReachFile
{
    const detail::FileFacts *facts;
    bool linted;
};

/**
 * Both reach passes over one src/ root. Reach is by include: an entry
 * file reaches each src/ header it includes, and a reached module (a
 * header and its same-stem .cc) reaches whatever either of them
 * includes. Use is by name: a declared function counts as used when
 * any src/ or entry file names it outside a declaration.
 */
void
passReach(const std::string &src_root,
          const std::map<std::string, ReachFile> &files,
          TreeSuppressions &suppressions,
          std::vector<Diagnostic> &diagnostics)
{
    namespace fs = std::filesystem;
    const std::string src_prefix = src_root + "/";
    const std::string parent = fs::path(src_root).parent_path()
                                   .generic_string() + "/";
    auto under = [](const std::string &path, const std::string &dir) {
        return path.compare(0, dir.size(), dir) == 0;
    };
    auto isEntry = [&](const std::string &path) {
        for (const char *dir : entry_dirs)
            if (under(path, parent + dir + "/"))
                return true;
        return false;
    };
    auto unitOf = [&](const std::string &path) {
        return fs::path(path).replace_extension().generic_string()
            .substr(src_prefix.size());
    };

    std::map<std::string, std::vector<const ReachFile *>> units;
    std::vector<const ReachFile *> queue;
    std::set<std::string> used;
    for (const auto &[path, file] : files) {
        const bool in_src = under(path, src_prefix);
        if (in_src)
            units[unitOf(path)].push_back(&file);
        else if (isEntry(path))
            queue.push_back(&file);
        else
            continue;  // a test, or another tree's file
        used.insert(file.facts->uses.begin(), file.facts->uses.end());
    }

    std::set<std::string> reached;
    while (!queue.empty()) {
        const auto *file = queue.back();
        queue.pop_back();
        const auto dir = fs::path(normalPath(file->facts->path))
                             .parent_path();
        for (const auto &include : file->facts->includes) {
            for (const auto &candidate :
                 {normalPath(fs::path(src_root) / include.header),
                  normalPath(dir / include.header)}) {
                if (!under(candidate, src_prefix) ||
                    !files.count(candidate))
                    continue;
                const auto unit = unitOf(candidate);
                if (reached.insert(unit).second)
                    queue.insert(queue.end(), units[unit].begin(),
                                 units[unit].end());
            }
        }
    }

    for (const auto &[unit, members] : units) {
        // Report on the header when there is one (units list files
        // in path order, so .cc comes before .hh).
        const ReachFile *anchor = members.front();
        for (const auto *member : members)
            if (isHeader(member->facts->path))
                anchor = member;
        if (!reached.count(unit) && anchor->linted &&
            !suppressions.covers(anchor->facts->path,
                                 "unreachable-module",
                                 anchor->facts->first_code_line))
            diagnostics.push_back(
                {anchor->facts->path, anchor->facts->first_code_line,
                 "unreachable-module",
                 "module '" + unit + "' is reached by no entry point: "
                 "nothing under examples/, bench/, perfbench/ or "
                 "tools/ includes it, directly or through src/",
                 "delete it, or suppress naming the test that needs "
                 "it"});
        for (const auto *member : members) {
            if (!member->linted || !isHeader(member->facts->path))
                continue;
            std::map<std::string, int> declared;  // name -> first line
            for (const auto &decl : member->facts->decls)
                declared.emplace(decl.name, decl.line);
            for (const auto &[name, line] : declared) {
                if (used.count(name) ||
                    suppressions.covers(member->facts->path,
                                        "test-only-api", line))
                    continue;
                diagnostics.push_back(
                    {member->facts->path, line, "test-only-api",
                     "'" + name + "' is named only by its own "
                     "declarations, by tests, or nowhere: no src/ "
                     "code and no entry point calls it",
                     "delete it with the tests that check only it, or "
                     "suppress naming the test that needs it as a "
                     "reference"});
            }
        }
    }
}

/**
 * Runs both reach passes for every src/ root among the linted files
 * that has at least one entry directory next to it (a root without
 * any has nothing that could reach it, so it cannot be judged). Files
 * of the root and of its entry directories that were not linted are
 * read for their facts alone.
 */
void
passesReach(const std::vector<detail::FileFacts> &all,
            TreeSuppressions &suppressions,
            std::vector<Diagnostic> &diagnostics)
{
    namespace fs = std::filesystem;
    std::map<std::string, ReachFile> files;
    std::set<std::string> src_roots;
    for (const auto &facts : all) {
        if (facts.io_error)
            continue;
        const auto path = normalPath(facts.path);
        files.emplace(path, ReachFile{&facts, true});
        const auto pos = srcComponent(path);
        if (pos != std::string::npos)
            src_roots.insert(path.substr(0, pos + 3));
    }

    std::vector<std::string> judged;
    std::vector<std::string> scope;
    for (const auto &root : src_roots) {
        std::vector<std::string> dirs;
        for (const char *dir : entry_dirs) {
            const auto entry = fs::path(root).parent_path() / dir;
            if (fs::is_directory(entry))
                dirs.push_back(entry.string());
        }
        if (dirs.empty())
            continue;
        judged.push_back(root);
        scope.push_back(root);
        scope.insert(scope.end(), dirs.begin(), dirs.end());
    }
    std::vector<std::string> missing;  // stays empty: every dir exists
    std::vector<detail::FileFacts> context;
    for (const auto &path : collectFiles(scope, missing))
        if (!files.count(normalPath(path)))
            context.push_back(detail::analyzeFile(path));
    for (const auto &facts : context)
        if (!facts.io_error)
            files.emplace(normalPath(facts.path), ReachFile{&facts, false});
    for (const auto &root : judged)
        passReach(root, files, suppressions, diagnostics);
}

} // namespace

// ---------------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------------

std::string
layerPolicyText()
{
    auto row = [](std::string head, const std::vector<std::string> &modules) {
        for (const auto &module : modules)
            head += " " + module;
        return head + "\n";
    };
    std::string text =
        "# qmh architecture layers, bottom tier first. A module may\n"
        "# include its own tier and any tier below it.\n";
    for (const auto &tier : layer_tiers)
        text += row("layer", tier);
    text += "# Facade-bypass discipline: the top tier talks to the\n"
            "# system through api/sweep, never straight into the\n"
            "# engines.\n";
    for (const auto &[from, to] : forbid_rows)
        text += row("forbid " + from + ":", to);
    return text;
}

Report
lintTree(const std::vector<std::string> &roots)
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
    passLayering(all, suppressions, report.diagnostics);
    passesReach(all, suppressions, report.diagnostics);
    suppressions.reportUnused(all, report.diagnostics);

    detail::sortUniqueDiagnostics(report.diagnostics);
    return report;
}

} // namespace lint
} // namespace qmh

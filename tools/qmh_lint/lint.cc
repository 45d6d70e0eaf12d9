#include "qmh_lint/lint.hh"

#include <algorithm>
#include <cctype>
#include <filesystem>
#include <fstream>
#include <sstream>

#include "qmh_lint/internal.hh"

namespace qmh {
namespace lint {

namespace {

// ---------------------------------------------------------------------------
// Rule registry
// ---------------------------------------------------------------------------

struct RuleInfo
{
    const char *id;
    const char *description;
};

// The contract rules, in documentation order: six per-file token rules
// followed by the two whole-tree rules (lintTree only). The two meta
// rules (bad-suppression, unused-suppression) guard the suppression
// mechanism itself and are always on and never suppressible.
constexpr RuleInfo rule_infos[] = {
    {"no-wallclock",
     "no clock or entropy reads (std::chrono::*_clock::now, time(), "
     "std::random_device): simulated time is the only time"},
    {"no-raw-rand",
     "all randomness flows through seeded qmh::Random; std::rand and "
     "naked std engines (std::mt19937, ...) are not replayable"},
    {"ordered-iteration",
     "no range-for over std::unordered_map/set: hash order must not "
     "reach rows, cache files or schedules — iterate a sorted "
     "snapshot"},
    {"typed-errors",
     "src/api and src/server request paths return Outcome; "
     "throw/exit/qmh_panic are reserved for internal invariant "
     "violations"},
    {"banned-headers",
     "headers that exist to break the other rules (<ctime>, <random>, "
     "<sys/time.h>) stay out of the tree"},
    {"lock-discipline",
     "src/api, src/opt, src/server and src/sweep never block (poll/"
     "read/write/wait/simulate/->run()) while a lock_guard/"
     "unique_lock/scoped_lock is live; condition-variable waits ON "
     "the lock are the sanctioned exception"},
    {"layering",
     "the src/ include graph respects the declared layer policy: no "
     "upward includes, no forbidden facade-bypass edges, no include "
     "cycles (whole-tree rule; lintTree only)"},
    {"unchecked-outcome",
     "a call to a function returning Outcome<...> is never discarded "
     "as a bare statement — a dropped Outcome drops its failure "
     "(whole-tree rule; lintTree only)"},
};

bool
isContractRule(std::string_view id)
{
    for (const auto &info : rule_infos)
        if (id == info.id)
            return true;
    return false;
}

/** Rules that need every file's facts; their findings (and therefore
 * their suppressions) are resolved by the tree passes, not here. */
bool
isTreeRule(std::string_view id)
{
    return id == "layering" || id == "unchecked-outcome";
}

// ---------------------------------------------------------------------------
// Per-directory policy
// ---------------------------------------------------------------------------

struct Policy
{
    bool no_wallclock = true;
    bool no_raw_rand = true;
    bool ordered_iteration = true;
    /** Strict mode: besides range-fors, flag iterator extraction
     * (.begin()/cbegin() and friends) from unordered containers.
     * On in src/sim/, where component arbitration decides grant
     * order — hash order anywhere in that path breaks the
     * bit-identical determinism contract. */
    bool ordered_iteration_strict = false;
    bool typed_errors = false;  ///< opt-in: only the Outcome domain
    bool banned_headers = true;
    bool lock_discipline = false;  ///< opt-in: concurrent domains

    bool
    enabled(std::string_view rule) const
    {
        if (rule == "no-wallclock")
            return no_wallclock;
        if (rule == "no-raw-rand")
            return no_raw_rand;
        if (rule == "ordered-iteration")
            return ordered_iteration;
        if (rule == "typed-errors")
            return typed_errors;
        if (rule == "banned-headers")
            return banned_headers;
        if (rule == "lock-discipline")
            return lock_discipline;
        return true;
    }
};

Policy
policyFor(std::string_view path)
{
    Policy policy;
    // typed-errors is scoped to the request domains: the facade and
    // the experiment server, where caller mistakes and transport
    // failures must come back as Outcome values. Everywhere else
    // qmh_panic IS the documented failure mode for programming
    // errors.
    if (path.find("src/api/") != std::string_view::npos ||
        path.find("src/server/") != std::string_view::npos)
        policy.typed_errors = true;
    // The sanctioned RNG home may name raw engines (to wrap, compare
    // against, or document them) without tripping its own rule.
    if (path.find("src/common/random") != std::string_view::npos)
        policy.no_raw_rand = false;
    // The component kernel (ports, token pools, banked memory) is
    // where same-tick arbitration is decided; ordered-iteration is
    // enforced in strict mode there.
    if (path.find("src/sim/") != std::string_view::npos)
        policy.ordered_iteration_strict = true;
    // The concurrent domains: the session's worker claim loop and
    // prepared slots (api), the result store and CachedJob (opt), the
    // multi-client server and the worker pool (sweep). A blocking
    // call under a held lock serializes every other client/worker,
    // so it is a finding there.
    if (path.find("src/api/") != std::string_view::npos ||
        path.find("src/opt/") != std::string_view::npos ||
        path.find("src/server/") != std::string_view::npos ||
        path.find("src/sweep/") != std::string_view::npos)
        policy.lock_discipline = true;
    return policy;
}

// ---------------------------------------------------------------------------
// Scrubber: blank comments and literal contents, keeping lines
// ---------------------------------------------------------------------------

struct Comment
{
    int start_line = 0;      ///< line the comment opens on
    int end_line = 0;        ///< line the comment closes on
    bool code_before = false;///< non-ws code earlier on start_line
    std::string text;        ///< comment body (without delimiters)
};

struct ScrubResult
{
    std::string code;               ///< literals/comments blanked
    std::vector<Comment> comments;
};

bool
identChar(char c)
{
    return std::isalnum(static_cast<unsigned char>(c)) || c == '_';
}

/** Identifier run ending just before @p pos (may be empty). */
std::string_view
identBefore(std::string_view text, std::size_t pos)
{
    std::size_t begin = pos;
    while (begin > 0 && identChar(text[begin - 1]))
        --begin;
    return text.substr(begin, pos - begin);
}

/**
 * Phase one of the analysis: walk the raw text once, copying code
 * through and replacing the contents of comments, string literals,
 * char literals and raw strings with spaces (newlines preserved, so
 * every byte keeps its line). Handles the classic tokenizer traps:
 * raw strings with custom delimiters, line comments continued by a
 * backslash splice, encoding-prefixed literals and digit separators.
 */
ScrubResult
scrub(std::string_view text)
{
    ScrubResult out;
    out.code.assign(text.begin(), text.end());

    int line = 1;
    bool code_on_line = false;
    std::size_t i = 0;
    const std::size_t n = text.size();

    auto blank = [&](std::size_t pos) {
        if (out.code[pos] != '\n')
            out.code[pos] = ' ';
    };
    auto advance = [&](std::size_t pos) {
        if (text[pos] == '\n') {
            ++line;
            code_on_line = false;
        }
    };

    while (i < n) {
        const char c = text[i];

        // --- line comment (with backslash-splice continuation) ---
        if (c == '/' && i + 1 < n && text[i + 1] == '/') {
            Comment comment;
            comment.start_line = line;
            comment.code_before = code_on_line;
            blank(i);
            blank(i + 1);
            std::size_t j = i + 2;
            while (j < n) {
                if (text[j] == '\n') {
                    // A backslash immediately before the newline (or
                    // before a \r\n pair) splices the next physical
                    // line into the comment.
                    std::size_t back = j;
                    if (back > 0 && text[back - 1] == '\r')
                        --back;
                    if (back > 0 && text[back - 1] == '\\') {
                        advance(j);
                        ++j;
                        continue;
                    }
                    break;
                }
                comment.text += text[j];
                blank(j);
                ++j;
            }
            comment.end_line = line;
            out.comments.push_back(std::move(comment));
            i = j;  // newline (or EOF) handled by the main loop
            continue;
        }

        // --- block comment ---
        if (c == '/' && i + 1 < n && text[i + 1] == '*') {
            Comment comment;
            comment.start_line = line;
            comment.code_before = code_on_line;
            blank(i);
            blank(i + 1);
            std::size_t j = i + 2;
            while (j < n) {
                if (text[j] == '*' && j + 1 < n && text[j + 1] == '/') {
                    blank(j);
                    blank(j + 1);
                    j += 2;
                    break;
                }
                comment.text += text[j];
                blank(j);
                advance(j);
                ++j;
            }
            comment.end_line = line;
            out.comments.push_back(std::move(comment));
            i = j;
            continue;
        }

        // --- string literal (raw or ordinary) ---
        if (c == '"') {
            const auto prefix = identBefore(text, i);
            const bool raw = !prefix.empty() && prefix.back() == 'R' &&
                             (prefix == "R" || prefix == "u8R" ||
                              prefix == "uR" || prefix == "UR" ||
                              prefix == "LR");
            code_on_line = true;
            std::size_t j = i + 1;
            if (raw) {
                // R"delim( ... )delim"
                std::string delim;
                while (j < n && text[j] != '(' && text[j] != '\n')
                    delim += text[j++];
                std::string closer = ")" + delim + "\"";
                const std::size_t end = text.find(closer, j);
                const std::size_t stop =
                    end == std::string_view::npos ? n
                                                  : end + closer.size();
                for (std::size_t k = i + 1; k < stop; ++k) {
                    blank(k);
                    advance(k);
                }
                i = stop;
                continue;
            }
            while (j < n && text[j] != '"' && text[j] != '\n') {
                if (text[j] == '\\' && j + 1 < n) {
                    blank(j);
                    ++j;
                }
                blank(j);
                ++j;
            }
            if (j < n && text[j] == '"')
                ++j;  // keep the closing quote
            i = j;
            continue;
        }

        // --- char literal vs digit separator (1'000'000) ---
        if (c == '\'') {
            const auto prefix = identBefore(text, i);
            const bool literal = prefix.empty() || prefix == "u" ||
                                 prefix == "U" || prefix == "L" ||
                                 prefix == "u8";
            code_on_line = true;
            if (!literal) {
                ++i;  // separator inside a number: plain code
                continue;
            }
            std::size_t j = i + 1;
            while (j < n && text[j] != '\'' && text[j] != '\n') {
                if (text[j] == '\\' && j + 1 < n) {
                    blank(j);
                    ++j;
                }
                blank(j);
                ++j;
            }
            if (j < n && text[j] == '\'')
                ++j;
            i = j;
            continue;
        }

        if (!std::isspace(static_cast<unsigned char>(c)))
            code_on_line = true;
        advance(i);
        ++i;
    }
    return out;
}

// ---------------------------------------------------------------------------
// Tokenizer over scrubbed code
// ---------------------------------------------------------------------------

struct Token
{
    enum class Kind { Ident, Punct };
    Kind kind;
    std::string_view text;
    int line;

    bool is(std::string_view t) const { return text == t; }
    bool ident() const { return kind == Kind::Ident; }
};

std::vector<Token>
tokenize(std::string_view code)
{
    std::vector<Token> tokens;
    int line = 1;
    std::size_t i = 0;
    const std::size_t n = code.size();
    while (i < n) {
        const char c = code[i];
        if (c == '\n') {
            ++line;
            ++i;
            continue;
        }
        if (std::isspace(static_cast<unsigned char>(c))) {
            ++i;
            continue;
        }
        if (identChar(c) &&
            !std::isdigit(static_cast<unsigned char>(c))) {
            std::size_t j = i + 1;
            while (j < n && identChar(code[j]))
                ++j;
            tokens.push_back(
                {Token::Kind::Ident, code.substr(i, j - i), line});
            i = j;
            continue;
        }
        if (std::isdigit(static_cast<unsigned char>(c))) {
            // pp-number: digits, idents-chars, '.', and exponent signs
            // consumed as one blob so "1e5f" never yields an ident.
            std::size_t j = i + 1;
            while (j < n) {
                const char d = code[j];
                if (identChar(d) || d == '.') {
                    ++j;
                    continue;
                }
                if ((d == '+' || d == '-') &&
                    (code[j - 1] == 'e' || code[j - 1] == 'E' ||
                     code[j - 1] == 'p' || code[j - 1] == 'P')) {
                    ++j;
                    continue;
                }
                break;
            }
            i = j;
            continue;
        }
        if (c == ':' && i + 1 < n && code[i + 1] == ':') {
            tokens.push_back({Token::Kind::Punct, code.substr(i, 2),
                              line});
            i += 2;
            continue;
        }
        if (c == '-' && i + 1 < n && code[i + 1] == '>') {
            tokens.push_back({Token::Kind::Punct, code.substr(i, 2),
                              line});
            i += 2;
            continue;
        }
        tokens.push_back({Token::Kind::Punct, code.substr(i, 1), line});
        ++i;
    }
    return tokens;
}

// ---------------------------------------------------------------------------
// Suppressions
// ---------------------------------------------------------------------------

struct Suppression
{
    std::string rule;
    int comment_line = 0;  ///< where the allow() itself sits
    int target_line = 0;   ///< the code line it covers
    bool used = false;
};

/**
 * Extract "qmh-lint: allow(<rule>): <justification>" markers.
 * A trailing comment covers its own line; a comment alone on a line
 * covers the line right after it. Malformed markers (unknown rule,
 * missing justification) are reported as bad-suppression.
 */
void
collectSuppressions(const std::string &file,
                    const std::vector<Comment> &comments,
                    std::vector<Suppression> &suppressions,
                    std::vector<Diagnostic> &diagnostics)
{
    constexpr std::string_view marker = "qmh-lint:";
    for (const auto &comment : comments) {
        std::size_t pos = 0;
        while ((pos = comment.text.find(marker, pos)) !=
               std::string::npos) {
            std::string_view rest =
                std::string_view(comment.text).substr(
                    pos + marker.size());
            pos += marker.size();
            auto bad = [&](const std::string &why) {
                diagnostics.push_back(
                    {file, comment.start_line, "bad-suppression", why,
                     "write '// qmh-lint: allow(<rule>): "
                     "<one-line justification>'"});
            };
            while (!rest.empty() &&
                   std::isspace(static_cast<unsigned char>(rest[0])))
                rest.remove_prefix(1);
            if (rest.substr(0, 6) != "allow(") {
                bad("malformed qmh-lint marker (expected 'allow(')");
                continue;
            }
            rest.remove_prefix(6);
            const std::size_t close = rest.find(')');
            if (close == std::string_view::npos) {
                bad("unterminated allow( in qmh-lint marker");
                continue;
            }
            const std::string rule(rest.substr(0, close));
            rest.remove_prefix(close + 1);
            if (!isContractRule(rule)) {
                bad("allow(" + rule + ") names no suppressible rule");
                continue;
            }
            // The justification is part of the contract: a bare
            // allow() hides a finding without leaving the reviewer
            // anything to judge.
            std::size_t text_start = 0;
            bool justified = false;
            if (!rest.empty() && rest[0] == ':') {
                for (text_start = 1; text_start < rest.size();
                     ++text_start)
                    if (!std::isspace(static_cast<unsigned char>(
                            rest[text_start]))) {
                        justified = true;
                        break;
                    }
            }
            if (!justified) {
                bad("allow(" + rule +
                    ") carries no justification — every suppression "
                    "must say why the finding is acceptable");
                continue;
            }
            Suppression suppression;
            suppression.rule = rule;
            suppression.comment_line = comment.start_line;
            suppression.target_line = comment.code_before
                                          ? comment.start_line
                                          : comment.end_line + 1;
            suppressions.push_back(std::move(suppression));
        }
    }
}

// ---------------------------------------------------------------------------
// Rules
// ---------------------------------------------------------------------------

bool
inSet(std::string_view text, std::initializer_list<const char *> set)
{
    for (const char *entry : set)
        if (text == entry)
            return true;
    return false;
}

/**
 * True when the identifier at @p i is a plain (or std::-qualified)
 * function use rather than a member or a foreign-namespace name —
 * `foo.time(...)` and `mylib::rand(...)` are somebody else's
 * functions; `time(...)` and `std::rand(...)` are the libc/std ones.
 */
bool
freeCall(const std::vector<Token> &tokens, std::size_t i)
{
    if (i + 1 >= tokens.size() || !tokens[i + 1].is("("))
        return false;
    if (i == 0)
        return true;
    const auto &prev = tokens[i - 1];
    if (prev.is(".") || prev.is("->"))
        return false;
    if (prev.is("::"))
        return i >= 2 && tokens[i - 2].is("std");
    return true;
}

void
ruleNoWallclock(const std::string &file,
                const std::vector<Token> &tokens,
                std::vector<Diagnostic> &diagnostics)
{
    constexpr const char *rule = "no-wallclock";
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const auto &t = tokens[i];
        if (!t.ident())
            continue;
        if (t.is("random_device")) {
            diagnostics.push_back(
                {file, t.line, rule,
                 "std::random_device reads the host entropy pool",
                 "derive streams from a seeded qmh::Random instead"});
            continue;
        }
        const std::string_view text = t.text;
        const bool clock_type =
            text.size() > 6 &&
            text.substr(text.size() - 6) == "_clock";
        if (clock_type && i + 2 < tokens.size() &&
            tokens[i + 1].is("::") && tokens[i + 2].is("now")) {
            diagnostics.push_back(
                {file, tokens[i + 2].line, rule,
                 "reads " + std::string(text) +
                     "::now() — wall-clock state in simulation code",
                 "simulated time is the only time; for user-facing "
                 "elapsed-time display, suppress with justification"});
            continue;
        }
        if (t.is("now") && i + 1 < tokens.size() &&
            tokens[i + 1].is("(") && i > 0 && tokens[i - 1].is("::")) {
            // The *_clock::now() form is reported above; this arm
            // catches clock-shaped statics on other scopes. Instance
            // calls (queue.now()) are NOT flagged: in this codebase
            // an object with a now() is the simulated clock itself.
            const bool already =
                tokens[i - 1].is("::") && i >= 2 &&
                tokens[i - 2].text.size() > 6 &&
                tokens[i - 2].text.substr(tokens[i - 2].text.size() -
                                          6) == "_clock";
            if (already)
                continue;
            diagnostics.push_back(
                {file, t.line, rule,
                 "clock-style now() call",
                 "if this is not a clock read, rename the function "
                 "(e.g. Params::now() -> currentTechnology())"});
            continue;
        }
        if (inSet(text, {"time", "clock", "gettimeofday",
                         "clock_gettime", "timespec_get", "localtime",
                         "gmtime", "mktime", "strftime", "difftime"}) &&
            freeCall(tokens, i))
            diagnostics.push_back(
                {file, t.line, rule,
                 "calls " + std::string(text) +
                     "() — wall-clock or calendar state",
                 "simulation results must be a pure function of "
                 "(spec, seed)"});
    }
}

void
ruleNoRawRand(const std::string &file,
              const std::vector<Token> &tokens,
              std::vector<Diagnostic> &diagnostics)
{
    constexpr const char *rule = "no-raw-rand";
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const auto &t = tokens[i];
        if (!t.ident())
            continue;
        if (inSet(t.text,
                  {"mt19937", "mt19937_64", "minstd_rand",
                   "minstd_rand0", "default_random_engine", "ranlux24",
                   "ranlux24_base", "ranlux48", "ranlux48_base",
                   "knuth_b", "mersenne_twister_engine",
                   "linear_congruential_engine",
                   "subtract_with_carry_engine"})) {
            if (i > 0 &&
                (tokens[i - 1].is(".") || tokens[i - 1].is("->")))
                continue;
            diagnostics.push_back(
                {file, t.line, rule,
                 "names the raw std engine " + std::string(t.text),
                 "std distributions are not bit-identical across "
                 "standard libraries; use qmh::Random"});
            continue;
        }
        if (inSet(t.text, {"rand", "srand", "random", "srandom",
                           "drand48", "lrand48", "mrand48", "rand_r"}) &&
            freeCall(tokens, i))
            diagnostics.push_back(
                {file, t.line, rule,
                 "calls " + std::string(t.text) +
                     "() — unseeded global RNG state",
                 "take a qmh::Random& so tests control the seed"});
    }
}

/**
 * Names declared with an unordered container type in @p tokens —
 * locals and members alike. Used both for the file under analysis and
 * for its companion header, so a member map declared in foo.hh is
 * known when foo.cc's range-fors are checked.
 */
std::vector<std::string>
unorderedNames(const std::vector<Token> &tokens)
{
    std::vector<std::string> names;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        if (!tokens[i].ident() ||
            !inSet(tokens[i].text,
                   {"unordered_map", "unordered_set",
                    "unordered_multimap", "unordered_multiset"}))
            continue;
        if (i + 1 >= tokens.size() || !tokens[i + 1].is("<"))
            continue;
        std::size_t depth = 1;
        std::size_t j = i + 2;
        while (j < tokens.size() && depth > 0) {
            if (tokens[j].is("<"))
                ++depth;
            else if (tokens[j].is(">"))
                --depth;
            ++j;
        }
        // j is one past the closing '>'. Nested member access
        // (::iterator and friends) is not a declaration.
        if (j < tokens.size() && tokens[j].is("::"))
            continue;
        while (j < tokens.size() &&
               (tokens[j].is("&") || tokens[j].is("*") ||
                tokens[j].is("const")))
            ++j;
        if (j < tokens.size() && tokens[j].ident() &&
            !(j + 1 < tokens.size() && tokens[j + 1].is("(")))
            names.emplace_back(tokens[j].text);
    }
    return names;
}

void
ruleOrderedIteration(const std::string &file,
                     const std::vector<Token> &tokens,
                     const std::vector<std::string> &seed_names,
                     bool strict,
                     std::vector<Diagnostic> &diagnostics)
{
    constexpr const char *rule = "ordered-iteration";

    // Pass A: unordered names from this file plus any seeded from the
    // companion header (member containers iterated in the .cc).
    std::vector<std::string> names = unorderedNames(tokens);
    names.insert(names.end(), seed_names.begin(), seed_names.end());
    if (names.empty())
        return;

    // Pass B: range-for statements whose range expression mentions
    // one of those names.
    for (std::size_t i = 0; i + 1 < tokens.size(); ++i) {
        if (!tokens[i].is("for") || !tokens[i + 1].is("("))
            continue;
        std::size_t depth = 1;
        std::size_t colon = 0;
        std::size_t j = i + 2;
        while (j < tokens.size() && depth > 0) {
            if (tokens[j].is("("))
                ++depth;
            else if (tokens[j].is(")"))
                --depth;
            else if (tokens[j].is(":") && depth == 1 && !colon)
                colon = j;
            ++j;
        }
        if (!colon)
            continue;  // classic for loop
        for (std::size_t k = colon + 1; k < j; ++k) {
            if (!tokens[k].ident())
                continue;
            const bool known = std::any_of(
                names.begin(), names.end(),
                [&](const std::string &name) {
                    return std::string_view(name) == tokens[k].text;
                });
            if (!known)
                continue;
            diagnostics.push_back(
                {file, tokens[i].line, rule,
                 "range-for over the unordered container '" +
                     std::string(tokens[k].text) + "'",
                 "iterate an ordered snapshot (sort the keys first) "
                 "so hash-map layout cannot reach the output"});
            break;
        }
    }

    if (!strict)
        return;

    // Pass C (strict domains only): iterator extraction from an
    // unordered container. In arbitration code even a single
    // begin()/cbegin() leaks hash order into grant order, so the
    // range-for check alone is not enough.
    for (std::size_t i = 0; i + 3 < tokens.size(); ++i) {
        if (!tokens[i].ident())
            continue;
        const bool known = std::any_of(
            names.begin(), names.end(),
            [&](const std::string &name) {
                return std::string_view(name) == tokens[i].text;
            });
        if (!known)
            continue;
        if (!tokens[i + 1].is(".") && !tokens[i + 1].is("->"))
            continue;
        if (!inSet(tokens[i + 2].text,
                   {"begin", "cbegin", "rbegin", "crbegin"}) ||
            !tokens[i + 3].is("("))
            continue;
        diagnostics.push_back(
            {file, tokens[i].line, rule,
             "iterator into the unordered container '" +
                 std::string(tokens[i].text) +
                 "' in an arbitration domain",
             "strict domain (src/sim/): grant order must come from a "
             "FIFO deque or an ordered map, never from hash layout"});
    }
}

void
ruleTypedErrors(const std::string &file,
                const std::vector<Token> &tokens,
                std::vector<Diagnostic> &diagnostics)
{
    constexpr const char *rule = "typed-errors";
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const auto &t = tokens[i];
        if (!t.ident())
            continue;
        if (t.is("throw")) {
            diagnostics.push_back(
                {file, t.line, rule,
                 "throw in the typed-error domain",
                 "return Outcome<T> (outcome.hh) so callers get a "
                 "typed, streamable failure"});
            continue;
        }
        if (t.is("qmh_panic") && i + 1 < tokens.size() &&
            tokens[i + 1].is("(")) {
            diagnostics.push_back(
                {file, t.line, rule,
                 "qmh_panic in the typed-error domain",
                 "request paths return Outcome; keep panics for "
                 "internal invariants and suppress with the reason"});
            continue;
        }
        if (inSet(t.text, {"exit", "_exit", "quick_exit", "abort",
                           "terminate"}) &&
            freeCall(tokens, i))
            diagnostics.push_back(
                {file, t.line, rule,
                 "calls " + std::string(t.text) +
                     "() in the typed-error domain",
                 "a request must fail as a value, not end the "
                 "process"});
    }
}

void
ruleBannedHeaders(const std::string &file, std::string_view raw,
                  std::string_view scrubbed,
                  std::vector<Diagnostic> &diagnostics)
{
    constexpr const char *rule = "banned-headers";
    int line = 1;
    std::size_t begin = 0;
    while (begin <= scrubbed.size()) {
        std::size_t end = scrubbed.find('\n', begin);
        if (end == std::string_view::npos)
            end = scrubbed.size();
        // Recognize the directive on the scrubbed line (so a
        // commented-out include does not count), then read the header
        // name from the raw line ("..." forms are blanked in the
        // scrubbed copy).
        std::string_view code = scrubbed.substr(begin, end - begin);
        std::size_t p = code.find_first_not_of(" \t");
        if (p != std::string_view::npos && code[p] == '#') {
            p = code.find_first_not_of(" \t", p + 1);
            if (p != std::string_view::npos &&
                code.substr(p, 7) == "include") {
                std::string_view raw_line =
                    raw.substr(begin, end - begin);
                const std::size_t open =
                    raw_line.find_first_of("<\"", p + 7);
                if (open != std::string_view::npos) {
                    const char closer =
                        raw_line[open] == '<' ? '>' : '"';
                    const std::size_t close =
                        raw_line.find(closer, open + 1);
                    if (close != std::string_view::npos) {
                        const std::string_view header =
                            raw_line.substr(open + 1,
                                            close - open - 1);
                        if (inSet(header, {"ctime", "time.h",
                                           "sys/time.h", "random"}))
                            diagnostics.push_back(
                                {file, line, rule,
                                 "includes banned header <" +
                                     std::string(header) + ">",
                                 "everything it offers breaks "
                                 "determinism; qmh::Random and "
                                 "simulated time cover the valid "
                                 "uses"});
                    }
                }
            }
        }
        if (end == scrubbed.size())
            break;
        begin = end + 1;
        ++line;
    }
}

/**
 * lock-discipline: flag blocking calls made while a scoped lock is
 * live in an enclosing scope. Scope tracking is brace-depth based:
 * a lock declared at depth d dies with the '}' that closes depth d.
 * Heuristic by design — explicit .unlock() is not modeled (the tree
 * style is scoped locking), and a lambda *defined* under a lock is
 * treated as running under it, which for this codebase's immediate-
 * dispatch lambdas is the safe assumption.
 */
void
ruleLockDiscipline(const std::string &file,
                   const std::vector<Token> &tokens,
                   std::vector<Diagnostic> &diagnostics)
{
    constexpr const char *rule = "lock-discipline";
    struct LiveLock
    {
        std::string_view name;
        int line;
        int depth;
    };
    std::vector<LiveLock> locks;
    int depth = 0;
    for (std::size_t i = 0; i < tokens.size(); ++i) {
        const auto &t = tokens[i];
        if (t.is("{")) {
            ++depth;
            continue;
        }
        if (t.is("}")) {
            while (!locks.empty() && locks.back().depth >= depth)
                locks.pop_back();
            --depth;
            continue;
        }
        if (!t.ident())
            continue;
        if (inSet(t.text,
                  {"lock_guard", "unique_lock", "scoped_lock"})) {
            // Declaration shape: [std::]lock_guard[<...>] name ( | {
            // A default-constructed unique_lock holds nothing, so the
            // initializer is required for the lock to count as live.
            std::size_t j = i + 1;
            if (j < tokens.size() && tokens[j].is("<")) {
                std::size_t tdepth = 1;
                ++j;
                while (j < tokens.size() && tdepth > 0) {
                    if (tokens[j].is("<"))
                        ++tdepth;
                    else if (tokens[j].is(">"))
                        --tdepth;
                    ++j;
                }
            }
            if (j + 1 < tokens.size() && tokens[j].ident() &&
                (tokens[j + 1].is("(") || tokens[j + 1].is("{")))
                locks.push_back(
                    {tokens[j].text, tokens[j].line, depth});
            continue;
        }
        if (locks.empty())
            continue;
        // The sanctioned exception: a condition-variable wait ON a
        // live lock releases it for the duration of the block.
        if (t.is("wait") && i + 2 < tokens.size() &&
            tokens[i + 1].is("(")) {
            bool on_live_lock = false;
            for (const auto &lock : locks)
                if (tokens[i + 2].text == lock.name)
                    on_live_lock = true;
            if (on_live_lock)
                continue;
        }
        std::string what;
        if (inSet(t.text,
                  {"poll", "read", "write", "wait", "simulate"}) &&
            i + 1 < tokens.size() && tokens[i + 1].is("("))
            what = std::string(t.text) + "()";
        else if (t.is("run") && i > 0 && tokens[i - 1].is("->") &&
                 i + 1 < tokens.size() && tokens[i + 1].is("("))
            what = "->run()";
        if (what.empty())
            continue;
        const auto &lock = locks.back();
        diagnostics.push_back(
            {file, t.line, rule,
             "calls " + what + " while the lock '" +
                 std::string(lock.name) + "' (line " +
                 std::to_string(lock.line) + ") is held",
             "copy what you need, drop the lock, then block — a "
             "blocking call under a lock stalls every other "
             "client/worker"});
    }
}

// ---------------------------------------------------------------------------
// Fact extraction for the whole-tree passes
// ---------------------------------------------------------------------------

/** Quoted #include directives with their lines (the module graph is
 * over project headers; <...> forms are banned-headers' business). */
std::vector<detail::IncludeEdge>
collectIncludes(std::string_view raw, std::string_view scrubbed)
{
    std::vector<detail::IncludeEdge> includes;
    int line = 1;
    std::size_t begin = 0;
    while (begin <= scrubbed.size()) {
        std::size_t end = scrubbed.find('\n', begin);
        if (end == std::string_view::npos)
            end = scrubbed.size();
        std::string_view code = scrubbed.substr(begin, end - begin);
        std::size_t p = code.find_first_not_of(" \t");
        if (p != std::string_view::npos && code[p] == '#') {
            p = code.find_first_not_of(" \t", p + 1);
            if (p != std::string_view::npos &&
                code.substr(p, 7) == "include") {
                std::string_view raw_line =
                    raw.substr(begin, end - begin);
                const std::size_t open =
                    raw_line.find_first_not_of(" \t", p + 7);
                if (open != std::string_view::npos &&
                    raw_line[open] == '"') {
                    const std::size_t close =
                        raw_line.find('"', open + 1);
                    if (close != std::string_view::npos)
                        includes.push_back(
                            {std::string(raw_line.substr(
                                 open + 1, close - open - 1)),
                             line});
                }
            }
        }
        if (end == scrubbed.size())
            break;
        begin = end + 1;
        ++line;
    }
    return includes;
}

/** Identifiers that can precede a '(' without being a callee, or sit
 * in a declaration's type position without being a type. */
bool
nonCalleeKeyword(std::string_view t)
{
    return inSet(
        t, {"if",        "while",     "for",       "switch",
            "return",    "throw",     "new",       "delete",
            "case",      "goto",      "else",      "do",
            "co_await",  "co_return", "co_yield",  "sizeof",
            "alignof",   "alignas",   "typeid",    "decltype",
            "noexcept",  "static_assert",          "operator",
            "explicit",  "virtual",   "static",    "inline",
            "friend",    "constexpr", "consteval", "constinit",
            "typename",  "class",     "struct",    "enum",
            "union",     "public",    "private",   "protected",
            "namespace", "using",     "typedef",   "template",
            "mutable",   "extern",    "thread_local",
            "volatile",  "and",       "or",        "not",
            "requires",  "concept",   "catch",     "assert",
            "defined"});
}

/**
 * Function declarations, split by return type: names declared to
 * return Outcome<...> vs anything else. The shape is
 * `<type> [&*const] [Qual::]*name (` — the plain side exists so the
 * tree pass can drop ambiguous names (declared both ways somewhere)
 * from the unchecked-outcome index: a token-level call site cannot
 * type its receiver, so only unambiguous names are actionable.
 */
void
collectDecls(const std::vector<Token> &tokens,
             std::vector<std::string> &outcome_decls,
             std::vector<std::string> &plain_decls)
{
    const std::size_t n = tokens.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (!tokens[i].ident() || i + 1 >= n || !tokens[i + 1].is("("))
            continue;
        if (nonCalleeKeyword(tokens[i].text))
            continue;
        // Walk back over the qualified-name chain to where the
        // return type ends.
        std::size_t p = i;
        while (p >= 2 && tokens[p - 1].is("::") &&
               tokens[p - 2].ident())
            p -= 2;
        if (p == 0)
            continue;
        // Skip ref/pointer/cv decorations between type and name.
        std::size_t q = p - 1;
        while (q > 0 && (tokens[q].is("&") || tokens[q].is("*") ||
                         tokens[q].is("const")))
            --q;
        if (tokens[q].is("&") || tokens[q].is("*") ||
            tokens[q].is("const"))
            continue;  // decorations ran into the file start
        if (tokens[q].is(">")) {
            // Template-id return type: find its head.
            std::size_t d = 1;
            std::size_t r = q;
            while (r > 0 && d > 0) {
                --r;
                if (tokens[r].is(">"))
                    ++d;
                else if (tokens[r].is("<"))
                    --d;
            }
            if (d != 0 || r == 0 || !tokens[r - 1].ident())
                continue;
            if (tokens[r - 1].is("Outcome"))
                outcome_decls.emplace_back(tokens[i].text);
            else
                plain_decls.emplace_back(tokens[i].text);
            continue;
        }
        if (tokens[q].ident() && !nonCalleeKeyword(tokens[q].text))
            plain_decls.emplace_back(tokens[i].text);
    }
}

/**
 * Calls discarded as bare expression-statements: the whole statement
 * is `receiver.chain->callee(args);` with the value going nowhere.
 * Records the callee name only — the tree pass decides which names
 * matter by intersecting with the Outcome index.
 */
std::vector<detail::BareCall>
collectBareCalls(const std::vector<Token> &tokens)
{
    std::vector<detail::BareCall> calls;
    const std::size_t n = tokens.size();
    for (std::size_t i = 0; i < n; ++i) {
        if (!tokens[i].ident() || i + 1 >= n || !tokens[i + 1].is("("))
            continue;
        if (nonCalleeKeyword(tokens[i].text))
            continue;
        // The call's argument list must be the end of the statement.
        std::size_t depth = 1;
        std::size_t j = i + 2;
        while (j < n && depth > 0) {
            if (tokens[j].is("("))
                ++depth;
            else if (tokens[j].is(")"))
                --depth;
            ++j;
        }
        if (depth != 0 || j >= n || !tokens[j].is(";"))
            continue;
        // Walk back over the receiver chain (obj.member->f(),
        // ns::f(), chained calls) to the start of the expression.
        std::size_t p = i;
        while (p >= 2) {
            const auto &prev = tokens[p - 1];
            if (!prev.is(".") && !prev.is("->") && !prev.is("::"))
                break;
            if (tokens[p - 2].ident()) {
                p -= 2;
                continue;
            }
            if (tokens[p - 2].is(")")) {
                // Hop over a chained call: ... g(...) .f(...)
                std::size_t q = p - 2;
                std::size_t d = 1;
                while (q > 0 && d > 0) {
                    --q;
                    if (tokens[q].is(")"))
                        ++d;
                    else if (tokens[q].is("("))
                        --d;
                }
                if (d == 0 && q >= 1 && tokens[q - 1].ident()) {
                    p = q - 1;
                    continue;
                }
            }
            break;
        }
        // Only a value with nowhere to go counts: the chain must
        // begin a statement (`return f();`, `x = f();`, `int y =
        // f();` all use the result).
        const bool statement_start =
            p == 0 || tokens[p - 1].is(";") || tokens[p - 1].is("{") ||
            tokens[p - 1].is("}") || tokens[p - 1].is(")") ||
            tokens[p - 1].is(":") || tokens[p - 1].is("else") ||
            tokens[p - 1].is("do");
        if (statement_start)
            calls.push_back(
                {std::string(tokens[i].text), tokens[i].line});
    }
    return calls;
}

} // namespace

// ---------------------------------------------------------------------------
// Public interface
// ---------------------------------------------------------------------------

std::string
Diagnostic::format() const
{
    std::ostringstream out;
    out << file << ":" << line << ": [" << rule << "] " << message;
    if (!hint.empty())
        out << " (hint: " << hint << ")";
    return out.str();
}

const std::vector<std::string> &
ruleNames()
{
    static const std::vector<std::string> names = [] {
        std::vector<std::string> out;
        for (const auto &info : rule_infos)
            out.emplace_back(info.id);
        out.emplace_back("bad-suppression");
        out.emplace_back("unused-suppression");
        return out;
    }();
    return names;
}

const char *
ruleDescription(std::string_view rule)
{
    for (const auto &info : rule_infos)
        if (rule == info.id)
            return info.description;
    if (rule == "bad-suppression")
        return "an allow() marker that is malformed, names no rule, "
               "or carries no justification";
    if (rule == "unused-suppression")
        return "an allow() marker that suppressed nothing — stale "
               "allowances must expire loudly";
    return nullptr;
}

namespace detail {

void
sortUniqueDiagnostics(std::vector<Diagnostic> &diagnostics)
{
    std::sort(diagnostics.begin(), diagnostics.end(),
              [](const Diagnostic &a, const Diagnostic &b) {
                  if (a.file != b.file)
                      return a.file < b.file;
                  if (a.line != b.line)
                      return a.line < b.line;
                  if (a.rule != b.rule)
                      return a.rule < b.rule;
                  return a.message < b.message;
              });
    diagnostics.erase(
        std::unique(diagnostics.begin(), diagnostics.end(),
                    [](const Diagnostic &a, const Diagnostic &b) {
                        return a.file == b.file && a.line == b.line &&
                               a.rule == b.rule &&
                               a.message == b.message;
                    }),
        diagnostics.end());
}

FileFacts
analyzeText(std::string_view policy_path, std::string_view text,
            const std::vector<std::string> &header_names)
{
    FileFacts facts;
    facts.path = std::string(policy_path);

    const std::string file(policy_path);
    const Policy policy = policyFor(policy_path);

    const auto scrubbed = scrub(text);
    const auto tokens = tokenize(scrubbed.code);

    std::vector<Diagnostic> raw;
    if (policy.enabled("no-wallclock"))
        ruleNoWallclock(file, tokens, raw);
    if (policy.enabled("no-raw-rand"))
        ruleNoRawRand(file, tokens, raw);
    if (policy.enabled("ordered-iteration"))
        ruleOrderedIteration(file, tokens, header_names,
                             policy.ordered_iteration_strict, raw);
    if (policy.enabled("typed-errors"))
        ruleTypedErrors(file, tokens, raw);
    if (policy.enabled("banned-headers"))
        ruleBannedHeaders(file, text, scrubbed.code, raw);
    if (policy.enabled("lock-discipline"))
        ruleLockDiscipline(file, tokens, raw);

    facts.includes = collectIncludes(text, scrubbed.code);
    collectDecls(tokens, facts.outcome_decls, facts.plain_decls);
    facts.bare_calls = collectBareCalls(tokens);

    std::vector<Suppression> suppressions;
    collectSuppressions(file, scrubbed.comments, suppressions,
                        facts.local_diags);

    for (auto &diagnostic : raw) {
        bool suppressed = false;
        for (auto &suppression : suppressions) {
            if (isTreeRule(suppression.rule))
                continue;
            if (suppression.rule == diagnostic.rule &&
                suppression.target_line == diagnostic.line) {
                suppression.used = true;
                suppressed = true;
            }
        }
        if (!suppressed)
            facts.local_diags.push_back(std::move(diagnostic));
    }
    for (const auto &suppression : suppressions) {
        // Tree-rule markers are deferred: only the whole-tree passes
        // can tell a used suppression from a stale one.
        if (isTreeRule(suppression.rule)) {
            facts.tree_suppressions.push_back(
                {suppression.rule, suppression.comment_line,
                 suppression.target_line});
            continue;
        }
        if (suppression.used)
            continue;
        facts.local_diags.push_back(
            {file, suppression.comment_line, "unused-suppression",
             "allow(" + suppression.rule + ") suppressed nothing",
             "the finding it covered is gone — delete the marker"});
    }
    sortUniqueDiagnostics(facts.local_diags);
    return facts;
}

FileFacts
analyzeFile(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        FileFacts facts;
        facts.path = path;
        facts.io_error = true;
        facts.local_diags.push_back(
            {path, 0, "io-error", "cannot read file", ""});
        return facts;
    }
    std::ostringstream buffer;
    buffer << in.rdbuf();

    // An implementation file iterates members its header declares;
    // per-file analysis would never see `std::unordered_map ... _m;`
    // from foo.hh while checking foo.cc's range-fors. Scan the
    // companion (same stem, .hh/.h) for unordered-container names.
    std::vector<std::string> header_names;
    const auto ext = std::filesystem::path(path).extension().string();
    if (ext == ".cc" || ext == ".cpp") {
        for (const char *header_ext : {".hh", ".h"}) {
            auto companion = std::filesystem::path(path);
            companion.replace_extension(header_ext);
            std::ifstream header(companion, std::ios::binary);
            if (!header)
                continue;
            std::ostringstream header_buffer;
            header_buffer << header.rdbuf();
            // Keep the scrub result alive while tokens (string_views
            // into its code buffer) are read.
            const auto header_scrubbed = scrub(header_buffer.str());
            header_names =
                unorderedNames(tokenize(header_scrubbed.code));
            break;
        }
    }
    return analyzeText(path, buffer.str(), header_names);
}

} // namespace detail

Report
lintText(std::string_view policy_path, std::string_view text)
{
    const auto facts = detail::analyzeText(policy_path, text, {});
    Report report;
    report.files_scanned = 1;
    report.diagnostics = facts.local_diags;
    return report;
}

Report
lintFile(const std::string &path)
{
    auto facts = detail::analyzeFile(path);
    Report report;
    if (!facts.io_error)
        report.files_scanned = 1;
    report.diagnostics = std::move(facts.local_diags);
    return report;
}

} // namespace lint
} // namespace qmh

/**
 * @file
 * Shared strict argv helpers for the examples/ CLIs.
 *
 * Every example parses arguments the same way — garbage fails
 * loudly instead of atoi-coercing to 0, a flag missing its value
 * exits immediately, and `key=value` tokens flow into the spec
 * machinery — so the logic lives here once instead of being
 * copy-pasted per main(). The WILL_FAIL ctest cases pin these
 * semantics; error *messages* stay in each CLI, which knows its own
 * usage line.
 */

#ifndef QMH_EXAMPLES_CLI_UTIL_HH
#define QMH_EXAMPLES_CLI_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <optional>
#include <string>
#include <vector>

#include "api/grid.hh"
#include "api/session.hh"
#include "api/spec.hh"

namespace qmh {
namespace cli {

/**
 * Value of the flag at argv[i], advancing i past it; prints
 * "<flag> needs a value" and exits(1) when argv ends first.
 */
inline const char *
flagValue(int argc, char **argv, int &i, const char *flag)
{
    if (i + 1 >= argc) {
        std::fprintf(stderr, "%s needs a value\n", flag);
        std::exit(1);
    }
    return argv[++i];
}

/**
 * Strict integer in [lo, hi]; nullopt on garbage, trailing junk or
 * out-of-range (never silently coerces).
 */
inline std::optional<int>
intArg(const char *text, int lo, int hi)
{
    const auto parsed = api::parseInt(text);
    if (!parsed || *parsed < lo || *parsed > hi)
        return std::nullopt;
    return static_cast<int>(*parsed);
}

/** --threads value: worker count in [0, 4096] (0 = all cores). */
inline std::optional<unsigned>
threadsArg(const char *text)
{
    const auto parsed = api::parseUInt(text);
    if (!parsed || *parsed > 4096)
        return std::nullopt;
    return static_cast<unsigned>(*parsed);
}

/** --seed value: any u64. */
inline std::optional<std::uint64_t>
seedArg(const char *text)
{
    return api::parseUInt(text);
}

/** A parsed [HOST:]PORT endpoint (server listen / client connect). */
struct HostPort
{
    std::string host = "127.0.0.1";
    std::uint16_t port = 0;
};

/**
 * "[HOST:]PORT" with a strict port in [0, 65535]; a bare "PORT"
 * means loopback. nullopt on garbage (never coerces).
 */
inline std::optional<HostPort>
hostPortArg(const char *text)
{
    std::string value(text);
    HostPort endpoint;
    std::string port_text = value;
    if (const auto colon = value.rfind(':');
        colon != std::string::npos) {
        endpoint.host = value.substr(0, colon);
        port_text = value.substr(colon + 1);
        if (endpoint.host.empty())
            return std::nullopt;
    }
    const auto port = api::parseUInt(port_text);
    if (!port || *port > 65535)
        return std::nullopt;
    endpoint.port = static_cast<std::uint16_t>(*port);
    return endpoint;
}

/** True for a `key=value` spec token (as opposed to a --flag). */
inline bool
isSpecToken(const std::string &arg)
{
    return arg.find('=') != std::string::npos &&
           arg.rfind("--", 0) != 0;
}

/** Print @p error to stderr: its code and message, then each detail. */
inline void
printError(const api::Error &error)
{
    std::fprintf(stderr, "error [%s]: %s\n", api::errorCodeName(error.code),
                 error.message.c_str());
    for (const auto &detail : error.details)
        std::fprintf(stderr, "  %s\n", detail.c_str());
}

/**
 * The points of @p grid, or nullopt after printing each of its
 * validate() diagnostics (a bad value, a key swept twice, a grid over
 * SpecGrid::max_points), so main() can exit 1.
 */
inline std::optional<std::vector<api::ExperimentSpec>>
expandGrid(const api::SpecGrid &grid)
{
    const auto errors = grid.validate();
    for (const auto &error : errors)
        std::fprintf(stderr, "error: %s\n", error.c_str());
    if (!errors.empty())
        return std::nullopt;
    return grid.expand();
}

/**
 * Run @p specs as one Session job and return its table. A rejected
 * batch (InvalidSpec, MixedKinds) or a failed point prints its typed
 * error and yields nullopt, so main() can exit 1.
 */
inline std::optional<sweep::ResultTable>
runTable(const std::vector<api::ExperimentSpec> &specs,
         const sweep::SweepOptions &options = {})
{
    api::Session session(options);
    auto submitted = session.submit(specs);
    if (!submitted.ok()) {
        printError(submitted.error());
        return std::nullopt;
    }
    auto result = submitted.value().wait();
    if (result.failure) {
        printError(*result.failure);
        return std::nullopt;
    }
    return std::move(result.table);
}

} // namespace cli
} // namespace qmh

#endif // QMH_EXAMPLES_CLI_UTIL_HH

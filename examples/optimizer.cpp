/**
 * @file
 * Scenario: find the best hierarchy design without sweeping the
 * whole design space.
 *
 * Where sweep_explorer exhaustively expands a SpecGrid, this CLI
 * runs opt::frontierSearch: a coarse grid over the given numeric
 * axes, then adaptive refinement around the best-ranked points until
 * the point budget or lattice resolution is reached. With --cache
 * every evaluated point is memoized to a JSON-lines file keyed by
 * its canonical spec string, so a repeated invocation simulates
 * nothing and replays bit-identical tables. A search that cannot
 * run prints its typed error and exits 1.
 */

#include <chrono>
#include <cstdio>
#include <iostream>
#include <string>
#include <vector>

#include "api/experiment.hh"
#include "cli_util.hh"
#include "common/table.hh"
#include "opt/frontier.hh"

namespace {

void
printUsage(const char *prog)
{
    std::printf(
        "usage: %s [options] [key=value ...]\n"
        "  key=value          override the base spec "
        "(default: experiment=hierarchy)\n"
        "  --axis key=lo:hi[:coarse]\n"
        "                     numeric axis to optimize; repeatable\n"
        "  --objective COLUMN result column to optimize (defaults:\n"
        "                     hierarchy adder_speedup, cache "
        "hit_rate,\n"
        "                     trace speedup)\n"
        "  --minimize         minimize the objective instead\n"
        "  --budget N         max points to evaluate (default 256)\n"
        "  --depth D          bisection generations per interval "
        "(default 4)\n"
        "  --frontier K       refine the top K points per round;\n"
        "                     0 = refine all (exhaustive; default 3)\n"
        "  --cache FILE       JSONL result cache (load on open, "
        "append on miss)\n"
        "  --progress         stream per-point search progress to "
        "stderr\n"
        "  --threads N        worker threads (default: all cores)\n"
        "  --seed S           base seed for spec-addressed RNG "
        "streams\n"
        "  --out PREFIX       write PREFIX.csv and PREFIX.json\n"
        "  --help             this message\n",
        prog);
}

bool
parseAxis(const std::string &text, qmh::opt::FrontierAxis &axis)
{
    const auto eq = text.find('=');
    if (eq == std::string::npos || eq == 0)
        return false;
    axis.key = text.substr(0, eq);
    const std::string rest = text.substr(eq + 1);
    const auto colon1 = rest.find(':');
    if (colon1 == std::string::npos)
        return false;
    const auto colon2 = rest.find(':', colon1 + 1);
    const auto lo = qmh::api::parseDouble(rest.substr(0, colon1));
    const auto hi = qmh::api::parseDouble(
        rest.substr(colon1 + 1, colon2 == std::string::npos
                                    ? std::string::npos
                                    : colon2 - colon1 - 1));
    if (!lo || !hi)
        return false;
    axis.lo = *lo;
    axis.hi = *hi;
    if (colon2 != std::string::npos) {
        const auto coarse =
            qmh::api::parseInt(rest.substr(colon2 + 1));
        // Range-check before the narrowing cast: 2^33+2 must fail
        // loudly, not truncate into a plausible count.
        if (!coarse || *coarse < 2 || *coarse > 65)
            return false;
        axis.coarse = static_cast<int>(*coarse);
    }
    return true;
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qmh;

    unsigned threads = 0;
    std::uint64_t seed = sweep::SweepOptions{}.base_seed;
    std::string out_prefix;
    std::string cache_path;
    opt::FrontierOptions options;
    std::vector<opt::FrontierAxis> axes;
    std::vector<std::string> spec_tokens = {"experiment=hierarchy"};

    bool progress = false;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&](const char *flag) {
            return cli::flagValue(argc, argv, i, flag);
        };
        if (arg == "--help" || arg == "-h") {
            printUsage(argv[0]);
            return 0;
        } else if (arg == "--threads") {
            const auto parsed = cli::threadsArg(next_value("--threads"));
            if (!parsed) {
                std::fprintf(stderr, "--threads: bad value\n");
                return 1;
            }
            threads = *parsed;
        } else if (arg == "--seed") {
            const auto parsed = cli::seedArg(next_value("--seed"));
            if (!parsed) {
                std::fprintf(stderr, "--seed: bad value\n");
                return 1;
            }
            seed = *parsed;
        } else if (arg == "--progress") {
            progress = true;
        } else if (arg == "--budget") {
            const auto parsed =
                api::parseUInt(next_value("--budget"));
            if (!parsed || *parsed == 0) {
                std::fprintf(stderr, "--budget: bad value\n");
                return 1;
            }
            options.budget = static_cast<std::size_t>(*parsed);
        } else if (arg == "--depth") {
            const auto parsed = api::parseInt(next_value("--depth"));
            if (!parsed || *parsed < 0 || *parsed > 20) {
                std::fprintf(stderr,
                             "--depth: expected integer in [0, 20]\n");
                return 1;
            }
            options.max_depth = static_cast<int>(*parsed);
        } else if (arg == "--frontier") {
            const auto parsed =
                api::parseUInt(next_value("--frontier"));
            if (!parsed) {
                std::fprintf(stderr, "--frontier: bad value\n");
                return 1;
            }
            options.frontier = static_cast<std::size_t>(*parsed);
        } else if (arg == "--objective") {
            options.objective = next_value("--objective");
        } else if (arg == "--minimize") {
            options.maximize = false;
        } else if (arg == "--cache") {
            cache_path = next_value("--cache");
        } else if (arg == "--out") {
            out_prefix = next_value("--out");
        } else if (arg == "--axis") {
            opt::FrontierAxis axis;
            if (!parseAxis(next_value("--axis"), axis)) {
                std::fprintf(stderr,
                             "--axis: expected key=lo:hi[:coarse] "
                             "with coarse in [2, 65]\n");
                return 1;
            }
            axes.push_back(std::move(axis));
        } else if (cli::isSpecToken(arg)) {
            spec_tokens.push_back(arg);
        } else {
            std::fprintf(stderr, "unknown option: %s\n", arg.c_str());
            printUsage(argv[0]);
            return 1;
        }
    }

    const auto parsed = api::parseSpecTokens(spec_tokens);
    if (!parsed.ok()) {
        for (const auto &error : parsed.errors)
            std::fprintf(stderr, "error: %s\n", error.c_str());
        return 1;
    }
    const auto base = parsed.spec;

    if (options.objective.empty()) {
        if (base.kind == api::ExperimentKind::Hierarchy)
            options.objective = "adder_speedup";
        else if (base.kind == api::ExperimentKind::Cache)
            options.objective = "hit_rate";
        else if (base.kind == api::ExperimentKind::Trace)
            options.objective = "speedup";
        else {
            std::fprintf(stderr,
                         "error: --objective is required for %s "
                         "experiments\n",
                         api::kindName(base.kind));
            return 1;
        }
    }

    api::Session session({.threads = threads, .base_seed = seed});
    opt::ResultCache cache(seed);
    if (!cache_path.empty()) {
        const auto error = cache.open(cache_path);
        if (!error.empty()) {
            std::fprintf(stderr, "error: %s\n", error.c_str());
            return 1;
        }
        std::printf("cache: %s (%zu points loaded)\n",
                    cache_path.c_str(), cache.stats().resident);
    }

    if (progress)
        options.on_progress = [](const opt::FrontierProgress &p) {
            std::fprintf(stderr,
                         "progress: round %zu, point %zu/%zu "
                         "(%zu evaluated)\n",
                         p.round, p.round_done, p.round_total,
                         p.evaluated);
            return true;  // observe only; never cancel
        };

    std::printf("%s %s over %zu axes on %u threads (base seed %llu, "
                "budget %zu)...\n",
                options.maximize ? "maximizing" : "minimizing",
                options.objective.c_str(), axes.size(),
                session.threadCount(),
                static_cast<unsigned long long>(seed), options.budget);
    // qmh-lint: allow(no-wallclock): elapsed-seconds display only — never feeds a row, a seed or a cache entry
    const auto start = std::chrono::steady_clock::now();
    const auto searched = opt::frontierSearch(
        session, base, axes, options,
        cache_path.empty() ? nullptr : &cache);
    const auto elapsed =
        std::chrono::duration<double>(
            // qmh-lint: allow(no-wallclock): elapsed-seconds display only — never feeds a row, a seed or a cache entry
            std::chrono::steady_clock::now() - start)
            .count();
    if (!searched.ok()) {
        cli::printError(searched.error());
        return 1;
    }
    const auto &found = searched.value();

    std::printf("evaluated %zu points in %zu rounds: simulated %zu, "
                "replayed %zu from cache (%.3f s)\n",
                found.evaluated, found.rounds, found.simulated,
                found.cached, elapsed);
    if (found.skipped_invalid)
        std::printf("skipped %zu candidate points that failed "
                    "validation\n",
                    found.skipped_invalid);
    std::printf("\nbest %s = %s at\n  %s\n\n", options.objective.c_str(),
                formatDoubleShortest(found.best_objective).c_str(),
                found.best_key.c_str());
    std::printf("top rows by %s:\n", options.objective.c_str());
    sweep::toAsciiTable(found.table, 10, {"spec", "seed"})
        .print(std::cout);

    if (!out_prefix.empty()) {
        const bool csv_ok =
            found.table.writeCsvFile(out_prefix + ".csv");
        const bool json_ok =
            found.table.writeJsonFile(out_prefix + ".json");
        if (!csv_ok || !json_ok) {
            std::fprintf(stderr, "failed to write %s.{csv,json}\n",
                         out_prefix.c_str());
            return 1;
        }
        std::printf("\nfull result set written to %s.csv and "
                    "%s.json\n",
                    out_prefix.c_str(), out_prefix.c_str());
    }
    return 0;
}

/**
 * @file
 * Scenario: sweep any experiment's design space on every core.
 *
 * Builds a base qmh::api::ExperimentSpec from `key=value` arguments,
 * expands `--axis key=v1,v2,...` overrides into a SpecGrid (any spec
 * key is sweepable — including the experiment kind's own knobs), fans
 * the points across a worker pool with deterministic per-point
 * seeding, ranks the result rows, and optionally writes the full
 * result set as CSV and JSON for downstream analysis.
 */

#include <chrono>
#include <cstdio>
#include <cstring>
#include <iostream>
#include <string>
#include <vector>

#include "api/experiment.hh"
#include "api/grid.hh"
#include "api/session.hh"
#include "api/workload.hh"
#include "cli_util.hh"

namespace {

void
printUsage(const char *prog)
{
    std::printf(
        "usage: %s [options] [key=value ...]\n"
        "  key=value        override the base spec "
        "(default: experiment=hierarchy)\n"
        "  --axis key=v1,v2 sweep axis; repeatable, any spec key\n"
        "  --rank COLUMN    sort rows by COLUMN descending\n"
        "  --threads N      worker threads (default: all cores)\n"
        "  --points SIZE    built-in hierarchy grid: small | full\n"
        "                   (used when no --axis is given)\n"
        "  --seed S         base seed for per-point RNG streams\n"
        "  --progress       stream per-point progress to stderr\n"
        "  --out PREFIX     write PREFIX.csv and PREFIX.json\n"
        "  --list-keys      print the spec keys each experiment kind "
        "reads\n"
        "  --list-workloads print the workload registry\n"
        "  --help           this message\n",
        prog);
}

/** The built-in hierarchy grids of --points small | full. */
void
addDefaultHierarchyAxes(qmh::api::SpecGrid &grid, bool small_grid)
{
    grid.axis("code", {"steane", "bacon-shor"});
    if (small_grid) {
        grid.axis("n", {"64", "128"});
        grid.axis("transfers", {"5", "10"});
        grid.axis("blocks", {"25", "49"});
    } else {
        grid.axis("n", {"256", "512", "1024"});
        grid.axis("transfers", {"2", "5", "10", "20"});
        grid.axis("blocks", {"25", "49", "100"});
    }
}

} // namespace

int
main(int argc, char **argv)
{
    using namespace qmh;

    unsigned threads = 0;
    std::uint64_t seed = sweep::SweepOptions{}.base_seed;
    std::string out_prefix;
    std::string rank_column;
    bool small_grid = false;
    bool progress = false;
    std::vector<std::string> spec_tokens = {"experiment=hierarchy"};
    std::vector<std::string> axis_args;

    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        auto next_value = [&](const char *flag) {
            return cli::flagValue(argc, argv, i, flag);
        };
        if (arg == "--help" || arg == "-h") {
            printUsage(argv[0]);
            return 0;
        } else if (arg == "--list-keys") {
            std::printf("every kind reads experiment=KIND; a key its "
                        "kind does not read must keep its default\n");
            for (const auto &name : api::experimentKindNames()) {
                std::printf("%s:\n", name.c_str());
                for (const auto &key :
                     api::kindKeys(*api::parseKind(name)))
                    std::printf("  %-16s %s\n", key.c_str(),
                                api::specKeyHelp(key));
            }
            return 0;
        } else if (arg == "--list-workloads") {
            for (const auto &generator : api::workloadRegistry())
                std::printf("  %-8s %s\n", generator.name.c_str(),
                            generator.description.c_str());
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
        } else if (arg == "--out") {
            out_prefix = next_value("--out");
        } else if (arg == "--rank") {
            rank_column = next_value("--rank");
        } else if (arg == "--axis") {
            axis_args.emplace_back(next_value("--axis"));
        } else if (arg == "--points") {
            const char *size = next_value("--points");
            if (std::strcmp(size, "small") == 0) {
                small_grid = true;
            } else if (std::strcmp(size, "full") == 0) {
                small_grid = false;
            } else {
                std::fprintf(stderr,
                             "--points must be small or full, got %s\n",
                             size);
                return 1;
            }
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

    api::SpecGrid grid;
    grid.base = parsed.spec;
    for (const auto &axis : axis_args) {
        const auto error = grid.addAxis(axis);
        if (!error.empty()) {
            std::fprintf(stderr, "error: %s\n", error.c_str());
            return 1;
        }
    }
    if (grid.axes.empty() &&
        grid.base.kind == api::ExperimentKind::Hierarchy)
        addDefaultHierarchyAxes(grid, small_grid);

    const auto specs = grid.expand();

    // Submit through a session: validation problems (an axis putting
    // later values out of range, or sweeping the experiment kind
    // itself into a mixed table) come back as one typed error with
    // per-spec diagnostics instead of a panic.
    api::Session session({.threads = threads, .base_seed = seed});
    auto submitted = session.submit(specs);
    if (!submitted.ok()) {
        cli::printError(submitted.error());
        return 1;
    }
    auto job = submitted.value();

    std::printf("sweeping %zu %s configurations on %u threads "
                "(base seed %llu)...\n",
                specs.size(), api::kindName(grid.base.kind),
                session.threadCount(),
                static_cast<unsigned long long>(seed));
    // qmh-lint: allow(no-wallclock): points/s progress display only — never feeds a row, a seed or a cache entry
    const auto start = std::chrono::steady_clock::now();
    if (progress) {
        // Completed rows stream in index order while later points
        // are still in flight; report each as it lands.
        while (job.nextRow()) {
            const auto snapshot = job.progress();
            std::fprintf(stderr, "progress: %zu/%zu points\r",
                         snapshot.done, snapshot.total);
        }
        std::fprintf(stderr, "\n");
    }
    auto result = job.wait();
    if (result.failure) {
        cli::printError(*result.failure);
        return 1;
    }
    auto table = std::move(result.table);
    const auto elapsed =
        std::chrono::duration<double>(
            // qmh-lint: allow(no-wallclock): points/s progress display only — never feeds a row, a seed or a cache entry
            std::chrono::steady_clock::now() - start)
            .count();
    std::printf("done in %.3f s (%.1f points/s)\n\n", elapsed,
                static_cast<double>(table.rows()) / elapsed);

    if (rank_column.empty() &&
        grid.base.kind == api::ExperimentKind::Hierarchy)
        rank_column = "adder_speedup";
    if (rank_column.empty() &&
        grid.base.kind == api::ExperimentKind::Trace)
        rank_column = "speedup";
    if (!rank_column.empty()) {
        const auto col = table.findColumn(rank_column);
        if (!col) {
            std::fprintf(stderr,
                         "--rank: no column '%s' in this experiment\n",
                         rank_column.c_str());
            return 1;
        }
        table.sortRowsByColumnDesc(*col);
        std::printf("top rows by %s:\n", rank_column.c_str());
    } else {
        std::printf("first rows:\n");
    }
    sweep::toAsciiTable(table, 10, {"spec", "seed"})
        .print(std::cout);

    if (!out_prefix.empty()) {
        const bool csv_ok = table.writeCsvFile(out_prefix + ".csv");
        const bool json_ok = table.writeJsonFile(out_prefix + ".json");
        if (!csv_ok || !json_ok) {
            std::fprintf(stderr, "failed to write %s.{csv,json}\n",
                         out_prefix.c_str());
            return 1;
        }
        std::printf("\nfull result set written to %s.csv and %s.json\n",
                    out_prefix.c_str(), out_prefix.c_str());
    }
    return 0;
}

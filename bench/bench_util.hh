/**
 * @file
 * Shared helpers for the reproduction benches: every bench prints its
 * paper artifact (table or figure series) and then runs a small
 * google-benchmark suite over the kernels that produced it.
 */

#ifndef QMH_BENCH_UTIL_HH
#define QMH_BENCH_UTIL_HH

#include <cstdio>
#include <cstdlib>
#include <string>
#include <vector>

#include <benchmark/benchmark.h>

#include "api/session.hh"
#include "sweep/emit.hh"

/** Print the bench banner. */
inline void
benchBanner(const char *artifact, const char *description)
{
    std::printf("==============================================================\n");
    std::printf("%s - %s\n", artifact, description);
    std::printf("(model values computed by qmh; paper values in parentheses)\n");
    std::printf("==============================================================\n");
}

/**
 * When QMH_SWEEP_OUT=<prefix> is set, write @p table to
 * <prefix>_<artifact>.csv and .json (the shared emission protocol of
 * the sweep-based benches).
 */
inline void
maybeWriteSweepOutputs(const qmh::sweep::ResultTable &table,
                       const char *artifact)
{
    const char *out = std::getenv("QMH_SWEEP_OUT");
    if (!out)
        return;
    const std::string base = std::string(out) + "_" + artifact;
    if (table.writeCsvFile(base + ".csv") &&
        table.writeJsonFile(base + ".json"))
        std::printf("sweep results written to %s.{csv,json}\n",
                    base.c_str());
    else
        std::fprintf(stderr, "failed to write %s.*\n", base.c_str());
}

/**
 * Run @p specs as one job on @p session and return its table. A
 * bench's grid is fixed, so a rejected batch or a failed point is a
 * bug: print the typed error and exit 1.
 */
inline qmh::sweep::ResultTable
runSweep(qmh::api::Session &session,
         const std::vector<qmh::api::ExperimentSpec> &specs)
{
    const auto fail = [](const qmh::api::Error &error) {
        std::fprintf(stderr, "bench sweep failed: %s\n",
                     error.describe().c_str());
        std::exit(1);
    };
    auto submitted = session.submit(specs);
    if (!submitted.ok())
        fail(submitted.error());
    auto result = submitted.value().wait();
    if (result.failure)
        fail(*result.failure);
    return std::move(result.table);
}

/** Run the reproduction printer, then google-benchmark. */
#define QMH_BENCH_MAIN(print_fn)                                       \
    int main(int argc, char **argv)                                    \
    {                                                                  \
        print_fn();                                                    \
        ::benchmark::Initialize(&argc, argv);                          \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv))      \
            return 1;                                                  \
        ::benchmark::RunSpecifiedBenchmarks();                         \
        return 0;                                                      \
    }

#endif // QMH_BENCH_UTIL_HH

/** @file Session-job overhead vs the blocking sweep, plus streaming
 *  and cancellation latency of the job machinery itself. */

#include <iostream>

#include "api/grid.hh"
#include "api/session.hh"
#include "bench_util.hh"
#include "common/table.hh"

using namespace qmh;

namespace {

/** A cheap analytic design space: per-point cost is microseconds,
 *  so the job bookkeeping dominates and the bench actually measures
 *  the session machinery, not the engines behind it. */
std::vector<api::ExperimentSpec>
bandwidthGrid(std::size_t blocks_points)
{
    api::SpecGrid grid;
    grid.base = api::parseSpec("experiment=bandwidth").spec;
    std::vector<std::string> blocks;
    for (std::size_t b = 0; b < blocks_points; ++b)
        blocks.push_back(std::to_string(10 + 2 * b));
    grid.axis("blocks", blocks);
    grid.axis("utilization", {"0.25", "0.5", "0.75", "1"});
    return grid.expand();
}

void
printSessionDemo()
{
    benchBanner("Session",
                "job-oriented execution: streaming rows, progress, "
                "cooperative cancellation");

    const auto specs = bandwidthGrid(16);
    api::Session session({.threads = 2});
    auto job = session.submit(specs).value();
    std::size_t streamed = 0;
    while (job.nextRow())
        ++streamed;
    const auto result = job.wait();
    std::printf("streamed %zu/%zu rows in index order "
                "(table rows: %zu, cancelled: %s)\n",
                streamed, specs.size(), result.table.rows(),
                result.cancelled ? "yes" : "no");

    auto limited = session.submit(specs).value();
    std::size_t consumed = 0;
    while (consumed < specs.size() / 4 && limited.nextRow())
        ++consumed;
    limited.cancel();
    const auto partial = limited.wait();
    std::printf("cancelled after %zu rows: prefix %zu, executed %zu, "
                "skipped %zu\n",
                consumed, partial.completed, partial.executed,
                partial.skipped);
    maybeWriteSweepOutputs(result.table, "session");
}

/** Baseline: the blocking one-shot sweep of the same design space. */
void
BM_BlockingSpecSweep(benchmark::State &state)
{
    const auto specs =
        bandwidthGrid(static_cast<std::size_t>(state.range(0)));
    sweep::SweepRunner runner(
        {.threads = static_cast<unsigned>(state.range(1))});
    for (auto _ : state) {
        auto table = runSweep(runner, specs);
        benchmark::DoNotOptimize(table);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(specs.size()));
}
BENCHMARK(BM_BlockingSpecSweep)
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({64, 2});

/** The same sweep as a session job, drained through the row stream
 *  (the qmh_service hot path: submit + N nextRow + wait). */
void
BM_SessionStreamSweep(benchmark::State &state)
{
    const auto specs =
        bandwidthGrid(static_cast<std::size_t>(state.range(0)));
    api::Session session(sweep::SweepOptions{
        .threads = static_cast<unsigned>(state.range(1))});
    for (auto _ : state) {
        auto job = session.submit(specs).value();
        while (job.nextRow()) {
        }
        auto result = job.wait();
        benchmark::DoNotOptimize(result);
    }
    state.SetItemsProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(specs.size()));
}
BENCHMARK(BM_SessionStreamSweep)
    ->Args({16, 1})
    ->Args({16, 2})
    ->Args({64, 2});

/** Submit + immediate cancel + wait: the optimizer's abandon path. */
void
BM_SessionCancelLatency(benchmark::State &state)
{
    const auto specs = bandwidthGrid(64);
    api::Session session(sweep::SweepOptions{.threads = 2});
    for (auto _ : state) {
        auto job = session.submit(specs).value();
        job.cancel();
        auto result = job.wait();
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_SessionCancelLatency);

} // namespace

QMH_BENCH_MAIN(printSessionDemo)

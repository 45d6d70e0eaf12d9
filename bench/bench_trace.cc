/** @file Trace-driven hierarchy engine: end-to-end circuit -> cache
 * -> transfer-network runs, and sweep throughput at 1/4/8 threads. */

#include <cstdio>
#include <iostream>

#include "api/experiment.hh"
#include "api/grid.hh"
#include "api/workload.hh"
#include "bench_util.hh"
#include "sweep/sweep.hh"
#include "trace/engine.hh"

using namespace qmh;

namespace {

/**
 * Design-space grid around the paper's operating points, executed at
 * instruction granularity: 2 codes x 2 adder workloads x channel and
 * capacity sweeps = 24 event-driven trace simulations.
 */
std::vector<api::ExperimentSpec>
traceGrid()
{
    api::SpecGrid grid;
    grid.base =
        api::parseSpec("experiment=trace n=64 blocks=49").spec;
    grid.axis("code", {"steane", "bacon-shor"});
    grid.axis("workload", {"draper", "qft"});
    grid.axis("transfers", {"2", "5", "10"});
    grid.axis("capacity_x", {"1", "2"});
    return grid.expand();
}

void
printTraceTable()
{
    benchBanner("Trace engine",
                "gate-level circuits through the full memory "
                "hierarchy (cache residency + transfer channels)");
    const auto specs = traceGrid();
    sweep::SweepRunner runner;
    auto table = runSweep(runner, specs);

    std::printf("trace design-space sweep: %zu points on %u "
                "threads; top configurations by speedup over the "
                "flat level-2 baseline:\n",
                table.rows(), runner.threadCount());
    table.sortRowsByColumnDesc(*table.findColumn("speedup"));
    sweep::toAsciiTable(table, 8, {"spec", "seed"})
        .print(std::cout);

    maybeWriteSweepOutputs(table, "trace");
    std::printf("Headline: the hierarchy pays off once transfer "
                "channels and cache capacity match the circuit's "
                "parallelism (paper Fig. 2 / Fig. 7 / Table 5).\n\n");
}

/**
 * One trace run over a prepared workload: the per-point engine cost
 * without the sweep layer or the once-per-circuit preparation.
 */
void
BM_TraceRun(benchmark::State &state)
{
    Random rng(7);
    api::ExperimentSpec spec;
    spec.workload = "draper";
    spec.n = static_cast<int>(state.range(0));
    const auto workload = api::buildWorkload(spec, rng);
    trace::TraceConfig config;
    config.blocks = 49;
    config.transfers = 10;
    config.capacity = 2 * workload.pe_qubits;
    const trace::PreparedWorkload prepared(workload, config.latency,
                                           {config.blocks});
    const auto params = iontrap::Params::future();
    for (auto _ : state)
        benchmark::DoNotOptimize(
            trace::runTrace(prepared, config, params));
    state.counters["gates"] =
        static_cast<double>(workload.program.size());
}
BENCHMARK(BM_TraceRun)->Arg(64)->Arg(256)->Unit(benchmark::kMillisecond);

/**
 * The 24-point trace grid at 1/4/8 threads: points/sec is the trace
 * engine's sweep throughput, and the 8-thread row over the 1-thread
 * row is the wall-clock scaling (real time, not CPU time).
 */
void
BM_TraceSweep(benchmark::State &state)
{
    const auto specs = traceGrid();
    const auto threads = static_cast<unsigned>(state.range(0));
    sweep::SweepRunner runner({.threads = threads});
    for (auto _ : state) {
        const auto table = runSweep(runner, specs);
        benchmark::DoNotOptimize(table.rows());
    }
    state.counters["points_per_sec"] = benchmark::Counter(
        static_cast<double>(specs.size()) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
}
BENCHMARK(BM_TraceSweep)->Arg(1)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

} // namespace

QMH_BENCH_MAIN(printTraceTable)

/** @file Banked level-2 memory: bank/port scaling of the contended
 * trace engine, plus raw component-kernel throughput under a
 * same-bank conflict storm and a spread access pattern. */

#include <cstdio>
#include <iostream>

#include "api/experiment.hh"
#include "api/grid.hh"
#include "api/workload.hh"
#include "bench_util.hh"
#include "sim/banked_memory.hh"
#include "sim/event_queue.hh"
#include "sweep/sweep.hh"
#include "trace/engine.hh"

using namespace qmh;

namespace {

/**
 * The contention design space: a cache too small for the workload
 * (every miss refills through the banks, evictions write back) swept
 * across bank counts and port widths. One bank behind one port is the
 * fully serialized floor; the wide corner approaches the unbanked
 * engine of PR 5.
 */
std::vector<api::ExperimentSpec>
memoryGrid()
{
    api::SpecGrid grid;
    grid.base = api::parseSpec(
                    "experiment=trace workload=draper n=64 blocks=16 "
                    "transfers=8 capacity=16")
                    .spec;
    grid.axis("mem_banks", {"1", "4", "16", "64"});
    grid.axis("mem_ports", {"1", "8"});
    grid.axis("cycles_per_line", {"0", "2"});
    return grid.expand();
}

void
printMemoryTable()
{
    benchBanner("Banked memory",
                "bank-conflict contention under the trace engine "
                "(fills + writebacks through bounded bank queues)");
    const auto specs = memoryGrid();
    sweep::SweepRunner runner;
    auto table = runSweep(runner, specs);

    std::printf("bank/port scaling: %zu contended trace runs on %u "
                "threads; fastest configurations first:\n",
                table.rows(), runner.threadCount());
    table.sortRowsByColumnDesc(*table.findColumn("speedup"));
    sweep::toAsciiTable(table, 8, {"spec", "seed"})
        .print(std::cout);

    maybeWriteSweepOutputs(table, "memory");
    std::printf("Headline: with one bank behind one port every fill "
                "serializes (bank_conflicts counts the queue); banks "
                "and ports buy the makespan back until the transfer "
                "channels are the bottleneck again.\n\n");
}

/**
 * Raw kernel throughput: N requests through the banked memory, either
 * all hammering bank 0 (storm) or striped across every bank
 * (spread). The gap is the cost of queueing itself, with no cache or
 * transfer machinery around it.
 */
void
BM_BankedMemory(benchmark::State &state)
{
    const auto banks = static_cast<unsigned>(state.range(0));
    const bool storm = state.range(1) != 0;
    constexpr std::uint64_t kRequests = 4096;
    std::uint64_t conflicts = 0;
    for (auto _ : state) {
        sim::EventQueue eq;
        sim::BankedMemoryConfig config;
        config.banks = banks;
        config.ports = banks;
        config.buffer = 64;
        config.cycles_per_request = 10;
        sim::BankedMemory memory(eq, "mem", config);
        // Every request is submitted at tick 0, before the run.
        for (std::uint64_t i = 0; i < kRequests; ++i)
            memory.request(storm ? 0 : i, 1, {});
        eq.run();
        benchmark::DoNotOptimize(memory.served());
        conflicts = memory.bankConflicts();
    }
    state.counters["requests_per_sec"] = benchmark::Counter(
        static_cast<double>(kRequests) *
            static_cast<double>(state.iterations()),
        benchmark::Counter::kIsRate);
    state.counters["bank_conflicts"] =
        static_cast<double>(conflicts);
}
BENCHMARK(BM_BankedMemory)
    ->ArgsProduct({{1, 8, 64}, {0, 1}})
    ->Unit(benchmark::kMillisecond);

/** One contended end-to-end trace run at each bank count. */
void
BM_TraceContended(benchmark::State &state)
{
    Random rng(7);
    api::ExperimentSpec spec;
    spec.workload = "draper";
    spec.n = 64;
    const auto workload = api::buildWorkload(spec, rng);
    trace::TraceConfig config;
    config.blocks = 16;
    config.transfers = 8;
    config.capacity = 16;
    config.mem_banks = static_cast<unsigned>(state.range(0));
    config.mem_ports = config.mem_banks;
    const trace::PreparedWorkload prepared(workload, config.latency,
                                           {config.blocks});
    const auto params = iontrap::Params::future();
    std::uint64_t conflicts = 0;
    for (auto _ : state) {
        const auto result =
            trace::runTrace(prepared, config, params);
        benchmark::DoNotOptimize(result.makespan_s);
        conflicts = result.bank_conflicts;
    }
    state.counters["bank_conflicts"] =
        static_cast<double>(conflicts);
}
BENCHMARK(BM_TraceContended)->Arg(1)->Arg(64)
    ->Unit(benchmark::kMillisecond);

} // namespace

QMH_BENCH_MAIN(printMemoryTable)

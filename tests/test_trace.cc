/** @file Trace-driven hierarchy engine tests: engine invariants,
 * text-format parity, and pickup by every spec-driven surface
 * (sweeps, sessions, the JSONL service, the cached runner). */

#include <gtest/gtest.h>

#include <sstream>

#include "api/experiment.hh"
#include "api/grid.hh"
#include "api/service.hh"
#include "api/session.hh"
#include "api/workload.hh"
#include "circuit/text_format.hh"
#include "opt/cached_sweep.hh"
#include "trace/engine.hh"

namespace qmh {
namespace trace {
namespace {

std::string
csvOf(const sweep::ResultTable &table)
{
    std::ostringstream os;
    table.writeCsv(os);
    return os.str();
}

api::Workload
draperWorkload(int n)
{
    Random rng(1);
    api::ExperimentSpec spec;
    spec.workload = "draper";
    spec.n = n;
    return api::buildWorkload(spec, rng);
}

TEST(TraceEngine, ReportsConsistentCounters)
{
    const auto workload = draperWorkload(32);
    TraceConfig config;
    config.blocks = 16;
    config.transfers = 4;
    config.capacity = 24;
    const auto result =
        runTrace(workload, config, iontrap::Params::future());

    EXPECT_EQ(result.instructions, workload.program.size());
    EXPECT_EQ(result.hits + result.misses, result.accesses);
    EXPECT_GT(result.accesses, 0u);
    EXPECT_GT(result.makespan_s, 0.0);
    EXPECT_GT(result.baseline_s, 0.0);
    EXPECT_DOUBLE_EQ(result.speedup,
                     result.baseline_s / result.makespan_s);
    EXPECT_DOUBLE_EQ(result.hit_rate,
                     static_cast<double>(result.hits) /
                         static_cast<double>(result.accesses));
    EXPECT_EQ(result.blocks_used, 16u);
    EXPECT_LE(result.peak_in_flight, 16u);
    EXPECT_GT(result.peak_in_flight, 0u);
    EXPECT_GT(result.mean_in_flight, 0.0);
    EXPECT_LE(result.block_utilization, 1.0 + 1e-9);
    EXPECT_LE(result.transfer_utilization, 1.0 + 1e-9);
    EXPECT_GT(result.events_executed, 0u);
}

TEST(TraceEngine, MoreChannelsAndCapacityNeverSlower)
{
    const auto workload = draperWorkload(64);
    TraceConfig starved;
    starved.blocks = 49;
    starved.transfers = 1;
    starved.capacity = 16;
    TraceConfig generous = starved;
    generous.transfers = 32;
    generous.capacity = 512;
    const auto params = iontrap::Params::future();
    const auto slow = runTrace(workload, starved, params);
    const auto fast = runTrace(workload, generous, params);
    EXPECT_LT(fast.makespan_s, slow.makespan_s);
    EXPECT_GE(fast.hit_rate, slow.hit_rate);
    // The flat baseline does not depend on cache or channels.
    EXPECT_DOUBLE_EQ(fast.baseline_s, slow.baseline_s);
}

TEST(TraceEngine, WholeProgramCachedMeansOnlyColdMisses)
{
    // Capacity >= qubit count: every miss is compulsory (first
    // touch), there are no evictions, and every later access hits.
    const auto workload = draperWorkload(16);
    TraceConfig config;
    config.blocks = 8;
    config.transfers = 4;
    config.capacity =
        static_cast<std::size_t>(workload.program.qubitCount());
    const auto result =
        runTrace(workload, config, iontrap::Params::future());
    EXPECT_EQ(result.evictions, 0u);
    // Cacheable qubits touched at least once = the compulsory misses.
    std::uint64_t cacheable = 0;
    for (const auto used : workload.cacheable)
        cacheable += used ? 1 : 0;
    EXPECT_LE(result.misses, cacheable);
}

TEST(TraceEngine, EmptyProgramIsAnEmptyRun)
{
    api::Workload workload;
    workload.program = circuit::Program("empty", 4);
    const auto result =
        runTrace(workload, TraceConfig{}, iontrap::Params::future());
    EXPECT_EQ(result.instructions, 0u);
    EXPECT_DOUBLE_EQ(result.makespan_s, 0.0);
    EXPECT_DOUBLE_EQ(result.speedup, 0.0);
}

TEST(TraceEngine, TextFormatCircuitMatchesGeneratorBuiltProgram)
{
    // A circuit that round-trips through the text format is the same
    // workload: parse -> run must reproduce the generator-built run
    // bit for bit.
    const auto original = draperWorkload(32);
    const auto text = circuit::writeText(original.program);
    const auto parsed = circuit::parseText(text);
    ASSERT_TRUE(parsed.ok) << parsed.error;

    api::Workload from_text;
    from_text.program = parsed.program;
    from_text.cacheable = original.cacheable;
    from_text.pe_qubits = original.pe_qubits;

    TraceConfig config;
    config.blocks = 12;
    config.transfers = 3;
    config.capacity = 32;
    const auto params = iontrap::Params::future();
    const auto a = runTrace(original, config, params);
    const auto b = runTrace(from_text, config, params);

    EXPECT_EQ(a.makespan_s, b.makespan_s);
    EXPECT_EQ(a.baseline_s, b.baseline_s);
    EXPECT_EQ(a.speedup, b.speedup);
    EXPECT_EQ(a.accesses, b.accesses);
    EXPECT_EQ(a.hits, b.hits);
    EXPECT_EQ(a.misses, b.misses);
    EXPECT_EQ(a.evictions, b.evictions);
    EXPECT_EQ(a.transfer_utilization, b.transfer_utilization);
    EXPECT_EQ(a.peak_in_flight, b.peak_in_flight);
    EXPECT_EQ(a.mean_in_flight, b.mean_in_flight);
    EXPECT_EQ(a.events_executed, b.events_executed);
}

TEST(TraceExperimentApi, RowMatchesDirectEngineCall)
{
    // The facade is a veneer: a trace row must equal the engine's
    // result for the same config, text-format path included.
    const auto parsed = api::parseSpec(
        "experiment=trace workload=draper n=32 blocks=12 transfers=3 "
        "capacity=32");
    ASSERT_TRUE(parsed.ok());
    const auto table =
        api::runSpecSweep({parsed.spec}, {.threads = 1});

    TraceConfig config;
    config.blocks = 12;
    config.transfers = 3;
    config.capacity = 32;
    const auto direct = runTrace(draperWorkload(32), config,
                                 iontrap::Params::future());

    const auto speedup = table.findColumn("speedup");
    const auto hits = table.findColumn("hits");
    const auto events = table.findColumn("events_executed");
    ASSERT_TRUE(speedup && hits && events);
    EXPECT_EQ(table.cell(0, *speedup).asNumber().value(),
              direct.speedup);
    EXPECT_EQ(table.cell(0, *hits).toString(),
              std::to_string(direct.hits));
    EXPECT_EQ(table.cell(0, *events).toString(),
              std::to_string(direct.events_executed));
}

TEST(TraceExperimentApi, ValidateCatchesBadRanges)
{
    auto spec = api::parseSpec("experiment=trace").spec;
    spec.workload = "not-a-workload";
    EXPECT_FALSE(api::makeExperiment(spec)->validate().empty());
    spec = api::parseSpec("experiment=trace capacity_x=0").spec;
    EXPECT_FALSE(api::makeExperiment(spec)->validate().empty());
    // The parser bounds transfers, but a C++-built spec can hold 0;
    // it must stay a typed diagnostic, not an engine fatal.
    spec = api::parseSpec("experiment=trace").spec;
    spec.transfers = 0;
    EXPECT_FALSE(api::makeExperiment(spec)->validate().empty());
    spec = api::parseSpec("experiment=trace").spec;
    EXPECT_TRUE(api::makeExperiment(spec)->validate().empty());
}

api::SpecGrid
traceGrid()
{
    api::SpecGrid grid;
    // The random workload makes rows seed-sensitive, so determinism
    // failures cannot hide behind a seed-independent experiment.
    grid.base = api::parseSpec(
                    "experiment=trace workload=random n=24 gates=300 "
                    "blocks=8 capacity=12")
                    .spec;
    grid.axis("transfers", {"1", "4"});
    grid.axis("capacity", {"8", "16"});
    grid.axis("code", {"steane", "bacon-shor"});
    return grid;
}

TEST(TraceSweep, BitIdenticalAcrossThreadCounts)
{
    const auto specs = traceGrid().expand();
    ASSERT_EQ(specs.size(), 8u);
    const auto serial =
        api::runSpecSweep(specs, {.threads = 1, .base_seed = 21});
    for (const unsigned threads : {2u, 4u, 8u}) {
        const auto parallel = api::runSpecSweep(
            specs, {.threads = threads, .base_seed = 21});
        EXPECT_EQ(csvOf(serial), csvOf(parallel))
            << threads << " threads diverged";
    }
    // Seed sensitivity: a different base seed must change the table.
    const auto other =
        api::runSpecSweep(specs, {.threads = 2, .base_seed = 22});
    EXPECT_NE(csvOf(serial), csvOf(other));
}

TEST(TraceSweep, CancelledSessionJobReturnsDeterministicPrefix)
{
    const auto specs = traceGrid().expand();
    const std::uint64_t seed = 33;
    const auto reference =
        api::runSpecSweep(specs, {.threads = 1, .base_seed = seed});

    api::Session session({.threads = 4, .base_seed = seed});
    auto submitted = session.submit(specs);
    ASSERT_TRUE(submitted.ok());
    auto job = submitted.value();
    for (int consumed = 0; consumed < 2; ++consumed)
        ASSERT_TRUE(job.nextRow().has_value());
    job.cancel();
    const auto result = job.wait();

    ASSERT_GE(result.completed, 2u);
    for (std::size_t r = 0; r < result.completed; ++r)
        for (std::size_t c = 0; c < result.table.columns(); ++c)
            EXPECT_EQ(result.table.cell(r, c).toString(),
                      reference.cell(r, c).toString())
                << "prefix row " << r << " diverged";
}

TEST(TraceSweep, CachedRunnerReplaysWarmRunWithZeroSimulations)
{
    const auto specs = traceGrid().expand();
    sweep::SweepRunner runner({.threads = 2, .base_seed = 5});
    opt::ResultCache cache(runner.options().base_seed);
    const auto cold = opt::runSpecSweepCached(runner, specs, &cache);
    EXPECT_EQ(cold.simulated, specs.size());
    const auto warm = opt::runSpecSweepCached(runner, specs, &cache);
    EXPECT_EQ(warm.simulated, 0u);
    EXPECT_EQ(warm.cached, specs.size());
    EXPECT_EQ(csvOf(cold.table), csvOf(warm.table));
}

TEST(TraceService, SweepRequestStreamsRowsAndDone)
{
    api::Session session({.threads = 2});
    std::istringstream in(
        "{\"id\":\"t\",\"seed\":9,\"specs\":["
        "\"experiment=trace workload=draper n=16 blocks=4 "
        "transfers=2 capacity=16\","
        "\"experiment=trace workload=qft n=12 blocks=4 transfers=2 "
        "capacity=12\"]}\n");
    std::ostringstream out;
    api::runService(session, in, out);
    const auto output = out.str();
    EXPECT_NE(output.find("\"type\":\"accepted\",\"id\":\"t\","
                          "\"total\":2"),
              std::string::npos)
        << output;
    EXPECT_NE(output.find("\"type\":\"row\""), std::string::npos);
    EXPECT_NE(output.find("\"hit_rate\""), std::string::npos);
    EXPECT_NE(output.find("\"rows\":2,\"total\":2,"
                          "\"cancelled\":false"),
              std::string::npos)
        << output;
}

TEST(TraceErrors, UnknownWorkloadListsRegistryAndSuggests)
{
    // The typed Outcome path must make the mistake actionable: list
    // the registry and point at the nearest name.
    auto spec = api::parseSpec("experiment=trace").spec;
    spec.workload = "drapr";
    const auto outcome = api::validateExperiments({spec});
    ASSERT_FALSE(outcome.ok());
    EXPECT_EQ(outcome.error().code, api::ErrorCode::InvalidSpec);
    ASSERT_EQ(outcome.error().details.size(), 1u);
    const auto &detail = outcome.error().details.front();
    EXPECT_NE(detail.find("unknown workload 'drapr'"),
              std::string::npos)
        << detail;
    EXPECT_NE(detail.find(
                  "draper, ripple, modexp, qft, random"),
              std::string::npos)
        << detail;
    EXPECT_NE(detail.find("did you mean 'draper'?"),
              std::string::npos)
        << detail;
}

TEST(TraceErrors, UnknownExperimentKindListsKindsAndSuggests)
{
    const auto parsed = api::parseSpec("experiment=tracee n=64");
    ASSERT_EQ(parsed.errors.size(), 1u);
    const auto &message = parsed.errors.front();
    EXPECT_NE(message.find("unknown experiment 'tracee'"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("hierarchy, cache, bandwidth, montecarlo, "
                           "trace"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("did you mean 'trace'?"),
              std::string::npos)
        << message;
    // A name nothing like the vocabulary gets the list, no guess.
    const auto wild = api::parseSpec("experiment=zzzzzzzzz");
    ASSERT_EQ(wild.errors.size(), 1u);
    EXPECT_EQ(wild.errors.front().find("did you mean"),
              std::string::npos)
        << wild.errors.front();
}

TEST(TraceMemory, ConflictColumnIsZeroWithoutContention)
{
    // Structural zero, not luck: capacity >= qubit count means no
    // evictions (no writebacks), one bank per qubit means no two
    // concurrent fills share a bank, and ports cover every bank. The
    // conflict-stall column must be exactly zero on such a run.
    const auto workload = draperWorkload(16);
    const auto qubits = static_cast<unsigned>(
        workload.program.qubitCount());
    TraceConfig config;
    config.blocks = 8;
    config.transfers = 8;
    config.capacity = qubits;
    config.mem_banks = qubits;
    config.mem_ports = qubits;
    const auto result =
        runTrace(workload, config, iontrap::Params::future());
    EXPECT_GT(result.mem_requests, 0u);
    EXPECT_EQ(result.writebacks, 0u);
    EXPECT_EQ(result.bank_conflicts, 0u);
    EXPECT_EQ(result.mem_stall_ticks, 0u);
    EXPECT_EQ(result.mem_peak_queue, 0u);
}

TEST(TraceMemory, BankContentionSlowsTheRunAndIsCounted)
{
    // The acceptance pin for the banked path: the same workload under
    // a one-bank one-port memory runs measurably longer than under a
    // wide one, and the gap is visible in the conflict counters.
    const auto workload = draperWorkload(64);
    TraceConfig starved;
    starved.blocks = 16;
    starved.transfers = 8;
    starved.capacity = 16;  // small cache: misses and writebacks
    starved.mem_banks = 1;
    starved.mem_ports = 1;
    TraceConfig banked = starved;
    banked.mem_banks = 64;
    banked.mem_ports = 32;
    const auto params = iontrap::Params::future();
    const auto slow = runTrace(workload, starved, params);
    const auto fast = runTrace(workload, banked, params);

    EXPECT_LT(fast.makespan_s, slow.makespan_s);
    EXPECT_GT(slow.bank_conflicts, 0u);
    EXPECT_GT(slow.mem_stall_ticks, 0u);
    EXPECT_GT(slow.mem_peak_queue, 0u);
    EXPECT_GT(slow.writebacks, 0u);
    EXPECT_GT(slow.mem_requests, slow.writebacks);
    EXPECT_LT(fast.bank_conflicts, slow.bank_conflicts);
}

TEST(TraceMemoryApi, MemoryKnobsAndColumnsFlowThroughTheSpec)
{
    // One spec string drives every surface: the mem_* knobs must
    // reach the engine and the contention columns must round-trip the
    // engine's numbers untouched.
    const auto parsed = api::parseSpec(
        "experiment=trace workload=draper n=64 blocks=16 transfers=8 "
        "capacity=16 mem_banks=1 mem_ports=1");
    ASSERT_TRUE(parsed.ok());
    EXPECT_EQ(parsed.spec.mem_banks, 1u);
    EXPECT_EQ(parsed.spec.mem_ports, 1u);
    const auto table =
        api::runSpecSweep({parsed.spec}, {.threads = 1});

    TraceConfig config;
    config.blocks = 16;
    config.transfers = 8;
    config.capacity = 16;
    config.mem_banks = 1;
    config.mem_ports = 1;
    const auto direct = runTrace(draperWorkload(64), config,
                                 iontrap::Params::future());

    const auto banks = table.findColumn("mem_banks");
    const auto conflicts = table.findColumn("bank_conflicts");
    const auto stalls = table.findColumn("mem_stall_ticks");
    const auto writebacks = table.findColumn("writebacks");
    const auto mean_queue = table.findColumn("mem_mean_queue");
    ASSERT_TRUE(banks && conflicts && stalls && writebacks &&
                mean_queue);
    EXPECT_EQ(table.cell(0, *banks).toString(), "1");
    EXPECT_EQ(table.cell(0, *conflicts).toString(),
              std::to_string(direct.bank_conflicts));
    EXPECT_EQ(table.cell(0, *stalls).toString(),
              std::to_string(direct.mem_stall_ticks));
    EXPECT_EQ(table.cell(0, *writebacks).toString(),
              std::to_string(direct.writebacks));
    EXPECT_EQ(table.cell(0, *mean_queue).asNumber().value(),
              direct.mem_mean_queue);
    EXPECT_GT(direct.bank_conflicts, 0u);
    // The canonical spec cell reparses to the same knob values.
    const auto reparsed = api::parseSpec(
        table.cell(0, 0).toString());
    ASSERT_TRUE(reparsed.ok());
    EXPECT_EQ(reparsed.spec.mem_banks, 1u);
    EXPECT_EQ(reparsed.spec.mem_ports, 1u);
}

TEST(TraceMemoryApi, ValidateCatchesBadMemoryKnobs)
{
    // A C++-built spec can hold zeros the parser would reject; the
    // facade must turn them into typed diagnostics, not engine
    // fatals, for both experiments that own a banked memory.
    for (const char *kind : {"trace", "hierarchy"}) {
        auto spec = api::parseSpec(std::string("experiment=") + kind)
                        .spec;
        spec.mem_banks = 0;
        EXPECT_FALSE(api::makeExperiment(spec)->validate().empty())
            << kind;
        spec = api::parseSpec(std::string("experiment=") + kind).spec;
        spec.mem_ports = 0;
        EXPECT_FALSE(api::makeExperiment(spec)->validate().empty())
            << kind;
        spec = api::parseSpec(std::string("experiment=") + kind).spec;
        spec.mem_buffer = 0;
        EXPECT_FALSE(api::makeExperiment(spec)->validate().empty())
            << kind;
    }
}

TEST(TraceGolden, MidSizeRunReproducesCheckedInRowExactly)
{
    // Golden-row determinism guard: the full CSV of a mid-size run —
    // every counter and every formatted double — is pinned against a
    // checked-in string, so *any* behavioral drift from a hot-path
    // data-structure swap fails loudly on its own, not only when it
    // happens to skew a 1-vs-N-thread comparison. The spec exercises
    // the whole pipeline: list-scheduler batching, cache misses and
    // evictions, bank contention (2 banks, 1 port) and transfer-
    // channel queueing.
    const auto parsed = api::parseSpec(
        "experiment=trace workload=draper n=48 blocks=16 transfers=4 "
        "capacity=40 mem_banks=2 mem_ports=1 mem_buffer=4");
    ASSERT_TRUE(parsed.errors.empty());
    const auto table =
        api::runSpecSweep({parsed.spec}, {.threads = 1, .base_seed = 9});
    const std::string golden =
        "spec,workload,n,blocks,transfers,capacity,mem_banks,"
        "mem_ports,makespan_s,baseline_s,speedup,accesses,hits,misses,"
        "evictions,hit_rate,transfer_utilization,mem_requests,"
        "writebacks,bank_conflicts,mem_stall_ticks,mem_peak_queue,"
        "mem_mean_queue,mem_utilization,block_utilization,"
        "peak_in_flight,mean_in_flight,events_executed,seed\n"
        "experiment=trace n=48 transfers=4 blocks=16 mem_banks=2 "
        "mem_ports=1 mem_buffer=4 capacity=40,draper,48,16,4,40,2,1,"
        "862.93227,123.31232999999999,0.1428991987980702,382,33,349,"
        "309,0.08638743455497382,0.1310531126620169,658,309,651,"
        "32053375620000,32,37.144717765624875,0.4941716225306999,"
        "0.0007917517385228855,12,0.012668027816366167,1354,"
        "12587370737594032228\n";
    EXPECT_EQ(csvOf(table), golden);
}

TEST(TraceSweep, MemoryAxesAreBitIdenticalAcrossThreadCounts)
{
    // The mem knobs join the determinism contract: sweeping them over
    // a seed-sensitive workload must stay bit-identical however many
    // threads run the grid.
    api::SpecGrid grid;
    grid.base = api::parseSpec(
                    "experiment=trace workload=random n=24 gates=300 "
                    "blocks=8 capacity=12")
                    .spec;
    grid.axis("mem_banks", {"1", "8"});
    grid.axis("mem_ports", {"1", "4"});
    grid.axis("cycles_per_line", {"0", "3"});
    const auto specs = grid.expand();
    ASSERT_EQ(specs.size(), 8u);
    const auto serial =
        api::runSpecSweep(specs, {.threads = 1, .base_seed = 17});
    for (const unsigned threads : {2u, 8u}) {
        const auto parallel = api::runSpecSweep(
            specs, {.threads = threads, .base_seed = 17});
        EXPECT_EQ(csvOf(serial), csvOf(parallel))
            << threads << " threads diverged";
    }
}

TEST(KindSweep, EveryExperimentKindIsBitIdenticalAcrossThreads)
{
    // The 1-vs-N contract holds for all five experiment kinds, not
    // just trace: each kind's small grid renders the same CSV from a
    // serial and a parallel run.
    const struct
    {
        const char *base;
        const char *axis;
    } kinds[] = {
        {"experiment=hierarchy n=64 adders=8 mem_banks=2 mem_ports=1",
         "blocks=4,9"},
        {"experiment=cache workload=random n=24 gates=300",
         "capacity=8,16"},
        {"experiment=bandwidth", "blocks=16,36"},
        {"experiment=montecarlo trials=500", "p0=0.001,0.01"},
        {"experiment=trace workload=random n=24 gates=300 blocks=8 "
         "capacity=12 mem_banks=1 mem_ports=1",
         "transfers=1,4"},
    };
    for (const auto &kind : kinds) {
        api::SpecGrid grid;
        grid.base = api::parseSpec(kind.base).spec;
        ASSERT_EQ(grid.addAxis(kind.axis), "") << kind.base;
        const auto specs = grid.expand();
        const auto serial = api::runSpecSweep(
            specs, {.threads = 1, .base_seed = 11});
        const auto wide = api::runSpecSweep(
            specs, {.threads = 4, .base_seed = 11});
        EXPECT_EQ(csvOf(serial), csvOf(wide)) << kind.base;
    }
}

TEST(TraceErrors, UnknownMemKnobSuggestsTheNearestKey)
{
    // Satellite of the banked-memory PR: a typo'd memory knob gets
    // the shared did-you-mean diagnostic, same as every other name
    // vocabulary in the api.
    const auto parsed = api::parseSpec("experiment=trace mem_bank=4");
    ASSERT_EQ(parsed.errors.size(), 1u);
    const auto &message = parsed.errors.front();
    EXPECT_NE(message.find("unknown spec key 'mem_bank'"),
              std::string::npos)
        << message;
    EXPECT_NE(message.find("mem_banks"), std::string::npos)
        << message;
    EXPECT_NE(message.find("did you mean 'mem_banks'?"),
              std::string::npos)
        << message;
}

TEST(TraceEngineDeath, MalformedConfigPanics)
{
    const auto workload = draperWorkload(16);
    TraceConfig config;
    config.capacity = 0;
    EXPECT_DEATH(
        runTrace(workload, config, iontrap::Params::future()),
        "capacity must be nonzero");
    config.capacity = 8;
    config.transfers = 0;
    EXPECT_DEATH(
        runTrace(workload, config, iontrap::Params::future()),
        "at least one transfer channel");
}

} // namespace
} // namespace trace
} // namespace qmh

/** @file Job-scoped prepared workloads: which points of a batch share
 * one trace::PreparedWorkload, that sharing leaves every row
 * byte-identical, and that a slot's data is freed once its last point
 * has run. */

#include <gtest/gtest.h>

#include <bit>
#include <limits>
#include <set>
#include <sstream>
#include <stdexcept>

#include "api/grid.hh"
#include "api/prepared.hh"
#include "api/session.hh"
#include "api/workload.hh"
#include "sched/scheduler.hh"
#include "trace/engine.hh"

namespace qmh {
namespace api {
namespace {

/** The 48-point Table 5 / Fig. 7 style grid over one circuit. */
std::vector<ExperimentSpec>
designGrid(const std::string &base)
{
    const auto parsed = parseSpec(base);
    EXPECT_TRUE(parsed.ok()) << base;
    SpecGrid grid;
    grid.base = parsed.spec;
    grid.axis("transfers", {"2", "5", "10", "20"});
    grid.axis("capacity_x", {"0.5", "1", "2"});
    grid.axis("mem_banks", {"4", "16"});
    grid.axis("mem_ports", {"2", "8"});
    return grid.expand();
}

std::vector<std::unique_ptr<Experiment>>
validated(const std::vector<ExperimentSpec> &specs)
{
    auto outcome = validateExperiments(specs);
    EXPECT_TRUE(outcome.ok());
    return outcome.ok() ? std::move(outcome).value()
                        : std::vector<std::unique_ptr<Experiment>>{};
}

/** The same batch with no slots: one makeExperiment per spec. */
std::vector<std::unique_ptr<Experiment>>
unshared(const std::vector<ExperimentSpec> &specs)
{
    std::vector<std::unique_ptr<Experiment>> out;
    for (const auto &spec : specs)
        out.push_back(makeExperiment(spec));
    return out;
}

std::string
csvOf(std::vector<std::unique_ptr<Experiment>> experiments,
      unsigned threads)
{
    Session session({.threads = threads, .base_seed = 11});
    auto job = session.submit(std::move(experiments));
    EXPECT_TRUE(job.ok());
    const auto result = job.value().wait();
    EXPECT_FALSE(result.failure.has_value());
    std::ostringstream os;
    result.table.writeCsv(os);
    return os.str();
}

TEST(PreparedWorkload, SingleCircuitBatchSharesOneSlot)
{
    const auto experiments =
        validated(designGrid("experiment=trace workload=draper n=32"));
    ASSERT_EQ(experiments.size(), 48u);
    const auto slot = preparedSlot(*experiments.front());
    ASSERT_NE(slot, nullptr);
    for (const auto &experiment : experiments)
        EXPECT_EQ(preparedSlot(*experiment), slot);
    EXPECT_EQ(slot->blocks(), std::vector<unsigned>{49});

    // Built once: every point reads the same instance.
    Random a(1), b(2);
    const auto *first = &slot->get(experiments.front()->spec(), a);
    EXPECT_EQ(&slot->get(experiments.back()->spec(), b), first);
    EXPECT_TRUE(first->flatMakespan(49).has_value());
}

TEST(PreparedWorkload, GroupsByGeneratorInputs)
{
    // Two circuits interleaved share one slot each; a lone circuit
    // and non-workload kinds share nothing.
    std::vector<ExperimentSpec> specs;
    for (const char *text :
         {"experiment=trace workload=draper n=32 transfers=2",
          "experiment=trace workload=ripple n=32 transfers=2",
          "experiment=trace workload=draper n=32 transfers=5",
          "experiment=trace workload=ripple n=32 transfers=5",
          "experiment=trace workload=draper n=40 transfers=5"}) {
        const auto parsed = parseSpec(text);
        ASSERT_TRUE(parsed.ok()) << text;
        specs.push_back(parsed.spec);
    }
    const auto experiments = validated(specs);
    ASSERT_EQ(experiments.size(), 5u);
    EXPECT_NE(preparedSlot(*experiments[0]), nullptr);
    EXPECT_EQ(preparedSlot(*experiments[0]),
              preparedSlot(*experiments[2]));
    EXPECT_NE(preparedSlot(*experiments[1]), nullptr);
    EXPECT_EQ(preparedSlot(*experiments[1]),
              preparedSlot(*experiments[3]));
    EXPECT_NE(preparedSlot(*experiments[0]),
              preparedSlot(*experiments[1]));
    EXPECT_EQ(preparedSlot(*experiments[4]), nullptr);

    const auto bandwidth = validated(
        {parseSpec("experiment=bandwidth blocks=4").spec,
         parseSpec("experiment=bandwidth blocks=8").spec});
    for (const auto &experiment : bandwidth)
        EXPECT_EQ(preparedSlot(*experiment), nullptr);
}

TEST(PreparedWorkload, RandomBatchSharesNothing)
{
    // random draws its circuit from each point's rng: equal inputs
    // are still different circuits, so no point may share one.
    const auto experiments = validated(
        designGrid("experiment=trace workload=random n=16 gates=64"));
    ASSERT_EQ(experiments.size(), 48u);
    for (const auto &experiment : experiments)
        EXPECT_EQ(preparedSlot(*experiment), nullptr);
}

TEST(PreparedWorkload, MixedBlocksGetTheirOwnFlatBaseline)
{
    SpecGrid grid;
    grid.base = parseSpec("experiment=trace workload=draper n=32").spec;
    grid.axis("blocks", {"2", "4", "49"});
    grid.axis("transfers", {"2", "10"});
    const auto specs = grid.expand();
    auto experiments = validated(specs);
    const auto slot = preparedSlot(*experiments.front());
    ASSERT_NE(slot, nullptr);
    EXPECT_EQ(slot->blocks(), (std::vector<unsigned>{2, 4, 49}));

    Random rng(3);
    const auto &prepared = slot->get(specs.front(), rng);
    const auto &program = prepared.workload().program;
    for (const unsigned blocks : {2u, 4u, 49u})
        EXPECT_EQ(prepared.flatMakespan(blocks),
                  sched::listSchedule(program, sched::LatencyModel{},
                                      blocks)
                      .makespan)
            << blocks;
    EXPECT_FALSE(prepared.flatMakespan(7).has_value());

    // Each point's baseline_s is its own block count's.
    Session session({.threads = 2, .base_seed = 5});
    auto job = session.submit(std::move(experiments));
    ASSERT_TRUE(job.ok());
    const auto table = job.value().wait().table;
    const auto baseline = table.findColumn("baseline_s");
    ASSERT_TRUE(baseline.has_value());
    std::set<double> baselines;
    for (std::size_t i = 0; i < specs.size(); ++i) {
        trace::TraceConfig config;
        config.blocks = specs[i].blocks;
        config.transfers = specs[i].transfers;
        const auto direct = trace::runTrace(prepared.workload(), config,
                                            specs[i].params());
        EXPECT_EQ(table.cell(i, *baseline).asNumber().value(),
                  direct.baseline_s)
            << i;
        baselines.insert(direct.baseline_s);
    }
    EXPECT_EQ(baselines.size(), 3u);
}

TEST(PreparedWorkload, RowsMatchPerPointRunTraceAtOneAndNThreads)
{
    std::vector<ExperimentSpec> specs;
    for (const char *base :
         {"experiment=trace workload=draper n=24 blocks=8",
          "experiment=trace workload=modexp n=12 reps=2",
          "experiment=trace workload=random n=12 gates=96"})
        for (auto &spec : designGrid(base))
            specs.push_back(std::move(spec));
    // Interleave the circuits so slots are in use concurrently.
    std::vector<ExperimentSpec> mixed;
    for (std::size_t i = 0; i < 48; ++i)
        for (std::size_t c = 0; c < 3; ++c)
            mixed.push_back(specs[48 * c + i]);

    const auto reference = csvOf(unshared(mixed), 1);
    EXPECT_EQ(csvOf(validated(mixed), 1), reference);
    EXPECT_EQ(csvOf(validated(mixed), 4), reference);

    // And field by field against the one-shot engine entry point.
    Session session({.threads = 4, .base_seed = 11});
    auto job = session.submit(mixed);
    ASSERT_TRUE(job.ok());
    const auto table = job.value().wait().table;
    const auto column = [&table](const char *name) {
        const auto index = table.findColumn(name);
        EXPECT_TRUE(index.has_value()) << name;
        return index.value_or(0);
    };
    for (std::size_t i = 0; i < mixed.size(); ++i) {
        const auto &spec = mixed[i];
        Random rng(sweep::pointSeed(11, i));
        const auto workload = buildWorkload(spec, rng);
        trace::TraceConfig config;
        config.blocks = spec.blocks;
        config.transfers = spec.transfers;
        config.capacity = static_cast<std::size_t>(
            table.cell(i, column("capacity")).asNumber().value());
        config.mem_banks = spec.mem_banks;
        config.mem_ports = spec.mem_ports;
        config.mem_buffer = static_cast<std::size_t>(spec.mem_buffer);
        config.cycles_per_line = spec.cycles_per_line;
        const auto direct =
            trace::runTrace(workload, config, spec.params());
        EXPECT_EQ(table.cell(i, column("makespan_s")).asNumber().value(),
                  direct.makespan_s)
            << i;
        EXPECT_EQ(table.cell(i, column("baseline_s")).asNumber().value(),
                  direct.baseline_s)
            << i;
        EXPECT_EQ(table.cell(i, column("hits")).toString(),
                  std::to_string(direct.hits))
            << i;
        EXPECT_EQ(table.cell(i, column("events_executed")).toString(),
                  std::to_string(direct.events_executed))
            << i;
    }
}

/** Every row of @p experiments run as one job, seed cell included. */
std::vector<std::vector<sweep::Cell>>
rowsOf(std::vector<std::unique_ptr<Experiment>> experiments,
       unsigned threads)
{
    Session session({.threads = threads, .base_seed = 11});
    auto job = session.submit(std::move(experiments));
    EXPECT_TRUE(job.ok());
    std::vector<std::vector<sweep::Cell>> rows;
    while (auto row = job.value().nextRow())
        rows.push_back(std::move(*row));
    EXPECT_FALSE(job.value().wait().failure.has_value());
    return rows;
}

/** Same alternative and, for reals, the same bits. */
bool
sameCell(const sweep::Cell &a, const sweep::Cell &b)
{
    if (a.typeTag() != b.typeTag())
        return false;
    if (!a.isReal())
        return a.toString() == b.toString();
    return std::bit_cast<std::uint64_t>(a.asNumber().value()) ==
           std::bit_cast<std::uint64_t>(b.asNumber().value());
}

TEST(PreparedWorkload, ReusedRunsMatchDirectRunTrace)
{
    // Grids wide enough to reach both sides of the reuse rule: one
    // channel (always binds on a miss), counts past every peak, single
    // banks and ports, tiny buffers, per-line bank costs and caches
    // from a quarter to twice the working set.
    for (const auto &generator : workloadRegistry()) {
        if (generator.seeded)
            continue;
        const int n = generator.name == "draper" ||
                              generator.name == "ripple"
                          ? 24
                          : 12;
        SpecGrid grid;
        grid.base = parseSpec("experiment=trace workload=" +
                              generator.name + " n=" + std::to_string(n))
                        .spec;
        grid.axis("capacity_x", {"0.25", "1", "2"});
        grid.axis("mem_banks", {"1", "4", "16"});
        grid.axis("mem_ports", {"1", "2", "8"});
        grid.axis("mem_buffer", {"1", "8"});
        grid.axis("cycles_per_line", {"0", "3"});
        grid.axis("transfers", {"1", "2", "3", "5", "8", "20"});
        const auto specs = grid.expand();
        ASSERT_EQ(specs.size(), 648u);
        const auto direct = rowsOf(unshared(specs), 1);
        ASSERT_EQ(direct.size(), specs.size());
        for (const unsigned threads : {1u, 4u}) {
            auto experiments = validated(specs);
            const auto slot = preparedSlot(*experiments.front());
            ASSERT_NE(slot, nullptr);
            const auto rows = rowsOf(std::move(experiments), threads);
            ASSERT_EQ(rows.size(), direct.size());
            for (std::size_t i = 0; i < rows.size(); ++i) {
                ASSERT_EQ(rows[i].size(), direct[i].size());
                for (std::size_t c = 0; c < rows[i].size(); ++c)
                    EXPECT_TRUE(sameCell(rows[i][c], direct[i][c]))
                        << generator.name << " threads=" << threads
                        << " row " << i << " column " << c << ": "
                        << rows[i][c].toString() << " vs "
                        << direct[i][c].toString();
            }
            // The grid must exercise reuse, not only the fallback.
            EXPECT_LT(slot->simulatedRuns(), specs.size())
                << generator.name << " threads=" << threads;
        }
    }
}

TEST(PreparedWorkload, ReuseCountOnTheSweepSharedGrid)
{
    // Run in grid order (transfers slowest), the 48 points of each
    // circuit take 21 distinct trajectories; the exact rule simulates
    // 27 of them and restates the other 21. A slot that never reuses
    // a run would report 48.
    for (const char *base : {"experiment=trace workload=draper n=32",
                             "experiment=trace workload=ripple n=64",
                             "experiment=trace workload=modexp n=16"}) {
        auto experiments = validated(designGrid(base));
        const auto slot = preparedSlot(*experiments.front());
        ASSERT_NE(slot, nullptr);
        EXPECT_EQ(rowsOf(std::move(experiments), 1).size(), 48u);
        EXPECT_EQ(slot->simulatedRuns(), 27u) << base;
    }
}

TEST(PreparedWorkload, BoundChannelsAreNotReused)
{
    const auto spec =
        parseSpec("experiment=trace workload=draper n=32 capacity=4").spec;
    Random rng(1);
    const auto workload = buildWorkload(spec, rng);
    trace::TraceConfig config;
    config.capacity = 4;
    const auto at = [&](unsigned transfers) {
        config.transfers = transfers;
        return trace::runTrace(workload, config, spec.params());
    };

    // One channel queues the misses: the run holds at one only.
    const auto bound = at(1);
    EXPECT_EQ(bound.exact_transfers_lo, 1u);
    EXPECT_EQ(bound.exact_transfers_hi, 1u);
    EXPECT_TRUE(trace::atTransfers(bound, 1).has_value());
    EXPECT_FALSE(trace::atTransfers(bound, 2).has_value());

    // Twenty channels never queue, but hold more than two at once:
    // exact from that peak up, and not below it.
    const auto wide = at(20);
    ASSERT_GT(wide.exact_transfers_lo, 2u);
    EXPECT_EQ(wide.exact_transfers_hi,
              std::numeric_limits<unsigned>::max());
    EXPECT_FALSE(trace::atTransfers(wide, 2).has_value());
    const auto restated = trace::atTransfers(wide, 50);
    ASSERT_TRUE(restated.has_value());
    const auto direct = at(50);
    EXPECT_EQ(restated->events_executed, direct.events_executed);
    EXPECT_EQ(restated->makespan_s, direct.makespan_s);
    EXPECT_EQ(std::bit_cast<std::uint64_t>(
                  restated->transfer_utilization),
              std::bit_cast<std::uint64_t>(direct.transfer_utilization));

    // Through a slot: neither the point after a bound run nor the one
    // below a wider run's peak reuses it.
    for (const auto &axis : {std::vector<std::string>{"1", "2"},
                             std::vector<std::string>{"20", "2"}}) {
        SpecGrid grid;
        grid.base = spec;
        grid.axis("transfers", axis);
        auto experiments = validated(grid.expand());
        const auto slot = preparedSlot(*experiments.front());
        ASSERT_NE(slot, nullptr);
        EXPECT_EQ(rowsOf(std::move(experiments), 1).size(), 2u);
        EXPECT_EQ(slot->simulatedRuns(), 2u) << axis.front();
    }
}

TEST(PreparedWorkload, CacheKindSharesTheWorkloadToo)
{
    SpecGrid grid;
    grid.base = parseSpec("experiment=cache workload=draper n=32").spec;
    grid.axis("capacity", {"8", "16", "32", "64"});
    grid.axis("warm", {"0", "1"});
    const auto specs = grid.expand();
    const auto experiments = validated(specs);
    const auto slot = preparedSlot(*experiments.front());
    ASSERT_NE(slot, nullptr);
    EXPECT_TRUE(slot->blocks().empty());  // no schedule baselines
    EXPECT_EQ(csvOf(validated(specs), 2), csvOf(unshared(specs), 1));
}

TEST(PreparedWorkload, SlotIsFreedAfterItsLastPointRetires)
{
    auto experiments =
        validated(designGrid("experiment=trace workload=draper n=24"));
    const std::weak_ptr<const PreparedSlot> slot =
        preparedSlot(*experiments.front());
    ASSERT_FALSE(slot.expired());

    Session session({.threads = 2, .base_seed = 3});
    auto job = session.submit(std::move(experiments));
    ASSERT_TRUE(job.ok());
    const auto result = job.value().wait();
    EXPECT_EQ(result.completed, 48u);
    // The job (and its experiments) is still alive; the prepared data
    // is not.
    EXPECT_EQ(job.value().totalPoints(), 48u);
    EXPECT_TRUE(slot.expired());
}

TEST(PreparedWorkload, UnbuildableSpecThrowsInsteadOfExiting)
{
    ExperimentSpec spec;
    spec.kind = ExperimentKind::Trace;
    spec.workload = "random";
    spec.n = 2;
    Random rng(1);
    EXPECT_THROW(buildWorkload(spec, rng), std::invalid_argument);
    EXPECT_FALSE(makeExperiment(spec)->validate().empty());
    EXPECT_FALSE(workloadDiagnostics(spec).empty());
    spec.n = 3;
    EXPECT_TRUE(workloadDiagnostics(spec).empty());
}

} // namespace
} // namespace api
} // namespace qmh

/** @file Adaptive optimizer vs exhaustive sweep, cold vs cached. */

#include <algorithm>
#include <iostream>

#include "api/experiment.hh"
#include "api/grid.hh"
#include "bench_util.hh"
#include "common/table.hh"
#include "opt/cached_job.hh"
#include "opt/frontier.hh"

using namespace qmh;

namespace {

/** The Table-5-style reference design space the optimizer refines. */
const opt::FrontierAxis axis_transfers{"transfers", 2, 16, 3};
const opt::FrontierAxis axis_blocks{"blocks", 4, 64, 3};

api::ExperimentSpec
referenceBase()
{
    return api::parseSpec("experiment=hierarchy n=64").spec;
}

opt::FrontierOptions
referenceOptions()
{
    opt::FrontierOptions options;
    options.objective = "gain_product";
    options.max_depth = 2;
    options.budget = 40;
    options.frontier = 3;
    return options;
}

/** Brute force over the same per-axis lattices the search explores. */
std::vector<api::ExperimentSpec>
bruteForceSpecs(const opt::FrontierOptions &options)
{
    api::SpecGrid grid;
    grid.base = referenceBase();
    for (const auto *axis : {&axis_transfers, &axis_blocks}) {
        const bool integer = opt::frontierAxisIsInteger(axis->key);
        std::vector<std::string> values;
        for (const double v : opt::frontierAxisLattice(
                 *axis, integer, options.max_depth))
            values.push_back(opt::frontierAxisValueText(v, integer));
        grid.axis(axis->key, values);
    }
    return grid.expand();
}

void
printOptimizer()
{
    benchBanner("Optimizer",
                "adaptive frontier refinement vs exhaustive sweep, "
                "plus spec-keyed result caching");

    const auto base = referenceBase();
    const auto options = referenceOptions();
    api::Session session;

    // The brute force runs the search's spec-seeded points, uncached;
    // the reference grid is valid by construction.
    const auto brute = bruteForceSpecs(options);
    opt::CachedJob brute_run(api::validateExperiments(brute).value(),
                             api::SeedMode::Spec, session.baseSeed());
    brute_run.start(session);
    const auto &columns = brute_run.columns();
    const auto obj = static_cast<std::size_t>(
        std::find(columns.begin(), columns.end(), options.objective) -
        columns.begin());
    double brute_best = 0.0;
    while (const auto row = brute_run.next())
        brute_best = std::max(brute_best, *(*row)[obj].asNumber());

    // In-memory: the warm pass replays it.
    opt::ResultCache cache(session.baseSeed());
    const auto cold = opt::frontierSearch(
        session, base, {axis_transfers, axis_blocks}, options, &cache);
    const auto warm = opt::frontierSearch(
        session, base, {axis_transfers, axis_blocks}, options, &cache);

    AsciiTable t;
    t.setCaption("hierarchy design space: transfers x blocks, "
                 "objective " + options.objective);
    t.setHeader({"run", "points simulated", "best objective"});
    t.setAlign(0, Align::Left);
    t.addRow({"exhaustive sweep",
              AsciiTable::num(std::uint64_t(brute.size())),
              AsciiTable::num(brute_best, 4)});
    t.addRow({"adaptive search (cold)",
              AsciiTable::num(std::uint64_t(cold.simulated)),
              AsciiTable::num(cold.best_objective, 4)});
    t.addRow({"adaptive search (cached)",
              AsciiTable::num(std::uint64_t(warm.simulated)),
              AsciiTable::num(warm.best_objective, 4)});
    t.print(std::cout);

    maybeWriteSweepOutputs(cold.table, "optimizer");
    std::printf("The adaptive search reaches the brute-force optimum "
                "with a fraction of the\nsimulations; a warm "
                "spec-keyed cache replays the rest bit-identically "
                "(0 simulated).\n\n");
}

void
BM_FrontierSearchCold(benchmark::State &state)
{
    const auto base = referenceBase();
    const auto options = referenceOptions();
    api::Session session(
        {.threads = static_cast<unsigned>(state.range(0))});
    for (auto _ : state) {
        const auto found = opt::frontierSearch(
            session, base, {axis_transfers, axis_blocks}, options);
        benchmark::DoNotOptimize(found.best_objective);
    }
}
BENCHMARK(BM_FrontierSearchCold)->Arg(1)->Arg(4)
    ->Unit(benchmark::kMillisecond);

void
BM_FrontierSearchWarmCache(benchmark::State &state)
{
    const auto base = referenceBase();
    const auto options = referenceOptions();
    api::Session session({.threads = 2});
    opt::ResultCache cache(session.baseSeed());
    opt::frontierSearch(session, base, {axis_transfers, axis_blocks},
                        options, &cache);
    for (auto _ : state) {
        const auto found = opt::frontierSearch(
            session, base, {axis_transfers, axis_blocks}, options,
            &cache);
        benchmark::DoNotOptimize(found.best_objective);
    }
}
BENCHMARK(BM_FrontierSearchWarmCache)->Unit(benchmark::kMillisecond);

void
BM_ResultCacheLookup(benchmark::State &state)
{
    opt::ResultCache cache(1);
    std::vector<std::string> keys;
    for (int i = 0; i < 512; ++i) {
        keys.push_back("experiment=hierarchy n=" + std::to_string(i));
        cache.insert(keys.back(), opt::specSeed(1, keys.back()),
                     {sweep::Cell(double(i)), sweep::Cell(i)});
    }
    std::size_t i = 0;
    for (auto _ : state) {
        benchmark::DoNotOptimize(
            cache.lookup(keys[i++ & 511]));
    }
}
BENCHMARK(BM_ResultCacheLookup);

} // namespace

QMH_BENCH_MAIN(printOptimizer)

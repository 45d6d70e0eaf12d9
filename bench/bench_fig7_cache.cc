/** @file Reproduces paper Fig. 7: quantum cache hit rates. */

#include <cstdlib>
#include <iostream>
#include <iterator>

#include "api/experiment.hh"
#include "api/grid.hh"
#include "api/workload.hh"
#include "bench_util.hh"
#include "cache/cache_sim.hh"
#include "common/table.hh"
#include "gen/draper.hh"

using namespace qmh;

namespace {

const char *adder_widths[] = {"64", "128", "256", "512", "1024"};
const char *cache_multipliers[] = {"1", "1.5", "2"};
const char *policies[] = {"inorder", "optimized"};

/**
 * The Fig. 7 design space as one qmh::api spec grid: adder width x
 * cache multiplier x fetch policy, warm-started, data registers
 * cacheable. Point order is (width slowest, policy fastest).
 */
std::vector<api::ExperimentSpec>
fig7Grid()
{
    api::SpecGrid grid;
    grid.base =
        api::parseSpec("experiment=cache workload=draper warm=1")
            .spec;
    grid.axis("n", {std::begin(adder_widths),
                    std::end(adder_widths)});
    grid.axis("capacity_x", {std::begin(cache_multipliers),
                             std::end(cache_multipliers)});
    grid.axis("policy", {std::begin(policies), std::end(policies)});
    return grid.expand();
}

void
printFig7()
{
    benchBanner("Figure 7",
                "cache hit rate, in-order vs optimized fetch, cache "
                "size in {1, 1.5, 2} x PE");

    api::Session session;
    const auto table = runSweep(session, fig7Grid());
    const auto rate_col = *table.findColumn("hit_rate");

    // Reshape the flat sweep into the paper's figure layout: one row
    // per adder width, one column per cache size, io/opt side by side.
    const std::size_t n_multipliers = std::size(cache_multipliers);
    const std::size_t n_policies = std::size(policies);
    AsciiTable t;
    t.setHeader({"Adder", "PE", "Cache=PE io/opt",
                 "Cache=1.5PE io/opt", "Cache=2PE io/opt"});
    for (std::size_t wi = 0; wi < std::size(adder_widths); ++wi) {
        const int n =
            static_cast<int>(*api::parseInt(adder_widths[wi]));
        std::vector<std::string> row = {
            std::string(adder_widths[wi]) + "-bit",
            std::to_string(api::adderPeQubits(n))};
        for (std::size_t mi = 0; mi < n_multipliers; ++mi) {
            const std::size_t base =
                (wi * n_multipliers + mi) * n_policies;
            const auto io =
                *table.cell(base + 0, rate_col).asNumber();
            const auto opt =
                *table.cell(base + 1, rate_col).asNumber();
            row.push_back(AsciiTable::num(100.0 * io, 1) + "% / " +
                          AsciiTable::num(100.0 * opt, 1) + "%");
        }
        t.addRow(row);
    }
    t.print(std::cout);

    maybeWriteSweepOutputs(table, "fig7");
    std::printf("Optimized dependency-aware fetch dominates in-order "
                "issue (paper: ~20%% -> ~85%%); gains from smarter "
                "fetch exceed gains from a larger cache.\n\n");
}

void
BM_CacheSimInOrder(benchmark::State &state)
{
    gen::AdderLayout layout;
    const auto prog = gen::draperAdder(
        256, true, &layout, gen::UncomputeMode::CarriesLeftDirty);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cache::simulateCache(prog, 441, cache::FetchPolicy::InOrder)
                .hits);
}
BENCHMARK(BM_CacheSimInOrder);

void
BM_CacheSimOptimized(benchmark::State &state)
{
    gen::AdderLayout layout;
    const auto prog = gen::draperAdder(
        256, true, &layout, gen::UncomputeMode::CarriesLeftDirty);
    for (auto _ : state)
        benchmark::DoNotOptimize(
            cache::simulateCache(prog, 441,
                                 cache::FetchPolicy::OptimizedLookahead)
                .hits);
}
BENCHMARK(BM_CacheSimOptimized);

} // namespace

QMH_BENCH_MAIN(printFig7)

/** @file Reproduces paper Fig. 6(b): superblock bandwidth crossover. */

#include <cstdlib>
#include <iostream>

#include "api/experiment.hh"
#include "api/grid.hh"
#include "bench_util.hh"
#include "common/table.hh"
#include "net/bandwidth.hh"

using namespace qmh;

namespace {

void
printFig6b()
{
    benchBanner("Figure 6(b)",
                "bandwidth required vs available per compute "
                "superblock");

    // Superblock sizes 10..80 for both codes as one qmh::api spec
    // grid (code slowest, so rows 0..7 are the Steane series).
    api::SpecGrid grid;
    grid.base = api::parseSpec("experiment=bandwidth").spec;
    grid.axis("code", {"steane", "bacon-shor"});
    grid.axis("blocks", {"10", "20", "30", "40", "50", "60", "70",
                         "80"});
    api::Session session;
    const auto table = runSweep(session, grid.expand());

    auto steane_only = sweep::toAsciiTable(
        table, 8, {"spec", "seed", "code", "level", "utilization",
                   "crossover_blocks"});
    steane_only.setCaption("Steane [[7,1,3]], level 2");
    steane_only.print(std::cout);

    const auto crossover_col = *table.findColumn("crossover_blocks");
    std::printf("Draper/available crossover: Steane %s blocks, "
                "Bacon-Shor %s blocks (paper: 36, immaterial of "
                "code)\n\n",
                table.cell(0, crossover_col).toString().c_str(),
                table.cell(8, crossover_col).toString().c_str());

    maybeWriteSweepOutputs(table, "fig6b");
}

void
BM_Crossover(benchmark::State &state)
{
    const auto params = iontrap::Params::future();
    const net::BandwidthModel model(ecc::Code::steane(), 2, params);
    for (auto _ : state)
        benchmark::DoNotOptimize(model.crossoverBlocks());
}
BENCHMARK(BM_Crossover);

} // namespace

QMH_BENCH_MAIN(printFig6b)

/** @file Reproduces paper Table 5: memory-hierarchy speedups. */

#include <iostream>

#include "api/experiment.hh"
#include "api/grid.hh"
#include "bench_util.hh"
#include "common/table.hh"
#include "cqla/hierarchy.hh"
#include "sweep/sweep.hh"

using namespace qmh;

namespace {

struct PaperRow
{
    ecc::CodeKind code;
    unsigned channels;
    int n;
    double s1, s2, sA, area, gp;
};

const PaperRow paper_rows[] = {
    {ecc::CodeKind::Steane713, 10, 256, 17.417, 0.98, 6.25, 5.07, 31.68},
    {ecc::CodeKind::Steane713, 10, 512, 17.41, 0.97, 6.33, 6.06, 38.38},
    {ecc::CodeKind::Steane713, 10, 1024, 18.18, 0.88, 4.93, 9.14, 45.06},
    {ecc::CodeKind::Steane713, 5, 256, 10.409, 0.98, 4.05, 5.07, 24.99},
    {ecc::CodeKind::Steane713, 5, 512, 10.408, 0.97, 4.04, 6.06, 24.48},
    {ecc::CodeKind::Steane713, 5, 1024, 10.96, 0.88, 2.94, 9.14, 26.87},
    {ecc::CodeKind::BaconShor913, 10, 256, 9.61, 1.53, 5.92, 7.43, 43.99},
    {ecc::CodeKind::BaconShor913, 10, 512, 9.61, 2.28, 8.82, 8.87, 78.23},
    {ecc::CodeKind::BaconShor913, 10, 1024, 10.15, 2.00, 8.10, 13.40,
     108.53},
    {ecc::CodeKind::BaconShor913, 5, 256, 5.17, 1.53, 3.66, 7.43, 27.19},
    {ecc::CodeKind::BaconShor913, 5, 512, 5.17, 2.28, 5.45, 8.87, 48.37},
    {ecc::CodeKind::BaconShor913, 5, 1024, 5.49, 2.00, 4.99, 13.40,
     66.90},
};

/**
 * Design-space grid around the paper's Table-5 operating points:
 * 2 codes x 3 adder widths x 4 channel counts x 4 block counts = 96
 * hierarchy rows, expressed as a generic qmh::api spec grid.
 */
std::vector<api::ExperimentSpec>
table5Grid()
{
    api::SpecGrid grid;
    grid.base = api::parseSpec("experiment=hierarchy").spec;
    grid.axis("code", {"steane", "bacon-shor"});
    grid.axis("n", {"256", "512", "1024"});
    grid.axis("transfers", {"2", "5", "10", "20"});
    grid.axis("blocks", {"49", "81", "100", "121"});
    return grid.expand();
}

void
printTable5()
{
    benchBanner("Table 5",
                "memory hierarchy with two encoding levels "
                "(L1/L2/adder speedups, gain product)");
    const auto params = iontrap::Params::future();
    cqla::HierarchyModel hier(params);

    AsciiTable t;
    t.setHeader({"Code", "Xfer", "Size", "L1 SpUp", "L2 SpUp", "f(L1)",
                 "Adder SpUp", "Area Red", "Gain Product"});
    t.setAlign(0, Align::Left);
    for (const auto &p : paper_rows) {
        const auto code = ecc::Code::byKind(p.code);
        const auto blocks = cqla::HierarchyModel::paperBlocks(p.n).value();
        const auto row = hier.row(code, p.n, p.channels, blocks);
        auto cell = [](double model, double paper) {
            return AsciiTable::num(model, 2) + " (" +
                   AsciiTable::num(paper, 2) + ")";
        };
        t.addRow({code.shortName() == "7" ? "Steane" : "Bacon-Shor",
                  std::to_string(p.channels), std::to_string(p.n),
                  cell(row.level1_speedup, p.s1),
                  cell(row.level2_speedup, p.s2),
                  AsciiTable::num(row.level1_add_fraction, 2),
                  cell(row.adder_speedup, p.sA),
                  cell(row.area_reduced, p.area),
                  cell(row.gain_product, p.gp)});
    }
    t.print(std::cout);

    // Design-space sweep across every core, routed through the
    // qmh::api facade (one spec grid, one sweep call).
    const auto specs = table5Grid();
    api::Session session;
    auto table = runSweep(session, specs);

    std::printf("\nDesign-space sweep: %zu points on %u threads; "
                "top configurations by adder speedup:\n",
                table.rows(), session.threadCount());
    table.sortRowsByColumn(*table.findColumn("adder_speedup"),
                           true);
    sweep::toAsciiTable(table, 5, {"spec", "seed"})
        .print(std::cout);

    maybeWriteSweepOutputs(table, "table5");
    std::printf("Headline: ~8x performance (paper Table 5 Bacon-Shor "
                "rows).\n\n");
}

void
BM_HierarchyRow(benchmark::State &state)
{
    const auto params = iontrap::Params::future();
    cqla::HierarchyModel hier(params);
    const auto code = ecc::Code::baconShor();
    for (auto _ : state)
        benchmark::DoNotOptimize(hier.row(code, 512, 10, 81));
}
BENCHMARK(BM_HierarchyRow);

/**
 * The full 96-point Table-5 grid at varying thread counts: the
 * speedup of the 8-thread row over the 1-thread row is the sweep
 * engine's wall-clock scaling (real time, not CPU time).
 */
void
BM_HierarchySweep(benchmark::State &state)
{
    const auto specs = table5Grid();
    const auto threads = static_cast<unsigned>(state.range(0));
    api::Session session({.threads = threads});
    for (auto _ : state) {
        const auto table = runSweep(session, specs);
        benchmark::DoNotOptimize(table.rows());
    }
    state.counters["points"] =
        static_cast<double>(specs.size());
}
BENCHMARK(BM_HierarchySweep)->Arg(1)->Arg(2)->Arg(4)->Arg(8)
    ->UseRealTime()->Unit(benchmark::kMillisecond);

} // namespace

QMH_BENCH_MAIN(printTable5)

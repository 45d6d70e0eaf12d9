/** @file Reproduces paper Fig. 8(a): modular exponentiation comm vs
 * computation (Bacon-Shor). */

#include <iostream>

#include "bench_util.hh"
#include "common/table.hh"
#include "common/units.hh"
#include "cqla/apps.hh"

using namespace qmh;

namespace {

void
printFig8a()
{
    benchBanner("Figure 8(a)",
                "modular exponentiation: computation vs communication "
                "[hours], Bacon-Shor code");
    const auto params = iontrap::Params::future();
    cqla::ModExpModel model(ecc::Code::baconShor(), params);

    AsciiTable t;
    t.setHeader({"Adder size", "Computation [h]", "Communication [h]",
                 "Comm/Comp"});
    for (const int n : {32, 128, 256, 512, 1024}) {
        const auto blocks =
            cqla::PerformanceModel::paperBlockCounts(n).value().second;
        const auto times = model.totalTimes(n, blocks);
        t.addRow({std::to_string(n),
                  AsciiTable::num(
                      units::secondsToHours(times.computation_s), 1),
                  AsciiTable::num(
                      units::secondsToHours(times.communication_s), 1),
                  AsciiTable::num(times.communication_s /
                                      times.computation_s,
                                  2)});
    }
    t.print(std::cout);
    std::printf("Computation dominates at every size (paper: ~500 h "
                "computation at 1024 bits); communication hides "
                "behind error correction.\n\n");
}

void
BM_ModExpTimes(benchmark::State &state)
{
    const auto params = iontrap::Params::future();
    cqla::ModExpModel model(ecc::Code::baconShor(), params);
    for (auto _ : state)
        benchmark::DoNotOptimize(model.totalTimes(256, 49));
}
BENCHMARK(BM_ModExpTimes);

} // namespace

QMH_BENCH_MAIN(printFig8a)

/**
 * @file
 * Scenario: pick the best CQLA configuration for a problem size.
 *
 * Sweeps compute-block counts with the analytic area/performance
 * models, then drives the qmh::api facade: a bandwidth experiment for
 * the optimal superblock size and a hierarchy SpecGrid over
 * (code x transfer channels) at the winning block count to rank the
 * pick's Table-5 rows.
 */

#include <cstdio>
#include <iostream>
#include <string>

#include "api/experiment.hh"
#include "api/grid.hh"
#include "cli_util.hh"
#include "cqla/area_model.hh"
#include "cqla/hierarchy.hh"

int
main(int argc, char **argv)
{
    using namespace qmh;

    int n = 512;
    if (argc > 1) {
        // Strict parse: garbage is an error, not silently zero.
        const auto parsed = cli::intArg(argv[1], 32, 4096);
        if (!parsed) {
            std::fprintf(stderr, "usage: %s [bits 32..4096]\n",
                         argv[0]);
            return 1;
        }
        n = *parsed;
    }

    const auto params = iontrap::Params::future();
    cqla::PerformanceModel perf(params);
    const cqla::AreaModel area(params);

    std::printf("=== CQLA design sweep for %d-bit modular "
                "exponentiation ===\n\n", n);
    std::printf("%7s | %21s | %21s\n", "", "Steane [[7,1,3]]",
                "Bacon-Shor [[9,1,3]]");
    std::printf("%7s | %7s %6s %6s | %7s %6s %6s\n", "blocks", "area",
                "speed", "GP", "area", "speed", "GP");

    unsigned best_blocks = 0;
    double best_gp = 0.0;
    for (unsigned b = 4; b <= 196; b += 8) {
        const auto steane = ecc::Code::steane();
        const auto bs = ecc::Code::baconShor();
        const double a_st = area.areaReductionFactor(steane, n, b);
        const double a_bs = area.areaReductionFactor(bs, n, b);
        const double s_st = perf.speedup(steane, n, b);
        const double s_bs = perf.speedup(bs, n, b);
        std::printf("%7u | %7.2f %6.2f %6.1f | %7.2f %6.2f %6.1f\n", b,
                    a_st, s_st, a_st * s_st, a_bs, s_bs, a_bs * s_bs);
        if (a_bs * s_bs > best_gp) {
            best_gp = a_bs * s_bs;
            best_blocks = b;
        }
    }
    std::printf("\nbest gain product: %.1f at %u blocks (Bacon-Shor)\n",
                best_gp, best_blocks);

    // Superblock sizing through the facade (one bandwidth spec).
    const auto bw_spec =
        api::parseSpec("experiment=bandwidth code=bacon-shor").spec;
    const auto bw = api::makeExperiment(bw_spec);
    Random rng(1);
    const auto bw_row = bw->run(rng);
    const auto crossover_col = [&bw]() {
        const auto columns = bw->columns();
        for (std::size_t c = 0; c < columns.size(); ++c)
            if (columns[c] == "crossover_blocks")
                return c;
        return std::size_t(0);
    }();
    const auto crossover = static_cast<unsigned>(
        bw_row[crossover_col].asNumber().value_or(1.0));
    std::printf("optimal superblock size from perimeter bandwidth: %u "
                "blocks => arrange %u blocks as %u superblock(s)\n",
                crossover, best_blocks,
                (best_blocks + crossover - 1) / crossover);

    // The pick's Table-5 rows: code x transfer channels at the
    // winning block count.
    api::SpecGrid grid;
    grid.base = api::parseSpec("experiment=hierarchy n=" +
                               std::to_string(std::min(n, 1024)) +
                               " blocks=" +
                               std::to_string(best_blocks))
                    .spec;
    grid.axis("code", {"steane", "bacon-shor"});
    grid.axis("transfers", {"5", "10", "20"});
    auto table = cli::runTable(grid.expand());
    if (!table)
        return 1;
    const auto speedup_col = table->findColumn("adder_speedup");
    table->sortRowsByColumnDesc(*speedup_col);
    std::printf("\nhierarchy rows at %u blocks (top adder speedups):\n",
                best_blocks);
    sweep::toAsciiTable(*table, 4, {"spec", "seed"}).print(std::cout);
    return 0;
}

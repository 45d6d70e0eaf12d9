/**
 * @file
 * Scenario: provision a CQLA machine to factor an n-bit number.
 *
 * Prints the complete machine report for a problem size given on the
 * command line (default 1024): region areas, adder latencies, the
 * fidelity budget that licenses the memory hierarchy, and projected
 * runtimes for the two phases of Shor's algorithm.
 */

#include <cstdio>

#include "cli_util.hh"
#include "common/units.hh"
#include "cqla/apps.hh"
#include "cqla/area_model.hh"
#include "cqla/hierarchy.hh"
#include "ecc/threshold.hh"

int
main(int argc, char **argv)
{
    using namespace qmh;

    int n = 1024;
    if (argc > 1) {
        // Strict parse: garbage is an error, not silently zero.
        const auto parsed = cli::intArg(argv[1], 32, 1024);
        n = parsed ? *parsed : -1;
    }
    const auto table4 = cqla::PerformanceModel::paperBlockCounts(n);
    if (!table4) {
        std::fprintf(stderr,
                     "usage: %s [32|64|128|256|512|1024]\n", argv[0]);
        return 1;
    }
    const auto blocks = *table4;

    const auto params = iontrap::Params::future();
    std::printf("=== CQLA provisioning report: %d-bit Shor ===\n\n", n);

    for (const auto kind : {ecc::CodeKind::Steane713,
                            ecc::CodeKind::BaconShor913}) {
        const auto code = ecc::Code::byKind(kind);
        std::printf("--- %s ---\n", code.name().c_str());

        const cqla::AreaModel area(params);
        const unsigned cache_qubits = 2 * 9 * blocks.second;
        const auto breakdown = area.cqlaArea(code, n, blocks.second,
                                             cache_qubits, 10);
        std::printf("memory %.0f mm^2 + compute %.0f mm^2 + cache "
                    "%.0f mm^2 + transfer %.0f mm^2 = %.0f mm^2 "
                    "(QLA baseline: %.0f mm^2, %.1fx larger)\n",
                    breakdown.memory_mm2, breakdown.compute_mm2,
                    breakdown.cache_mm2, breakdown.transfer_mm2,
                    breakdown.total(), area.qlaAreaMm2(n),
                    area.qlaAreaMm2(n) / breakdown.total());

        const ecc::FidelityBudget budget(code, params,
                                         ecc::shorKqOps(n));
        std::printf("fidelity: Pf(L1)=%.1e Pf(L2)=%.1e; max level-1 "
                    "time share %.1f%%\n",
                    budget.failureRate(1), budget.failureRate(2),
                    100.0 * budget.maxLevel1TimeFraction());

        cqla::HierarchyModel hier(params);
        const auto row = hier.row(code, n, 10, blocks.second);
        std::printf("hierarchy: L1 speedup %.1f, adder speedup %.2f, "
                    "gain product %.1f\n",
                    row.level1_speedup, row.adder_speedup,
                    row.gain_product);

        cqla::ModExpModel modexp(code, params);
        const auto t = modexp.totalTimes(n, blocks.second);
        std::printf("modular exponentiation: %.1f h computation, "
                    "%.1f h communication (before hierarchy gains: "
                    "/%.2f with it)\n",
                    units::secondsToHours(t.computation_s),
                    units::secondsToHours(t.communication_s),
                    row.adder_speedup);

        cqla::QftModel qft(code, params);
        const auto q = qft.totalTimes(n);
        std::printf("QFT: %.0f s computation, %.0f s communication\n\n",
                    q.computation_s, q.communication_s);
    }
    return 0;
}

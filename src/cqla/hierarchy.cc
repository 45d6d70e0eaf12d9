#include "hierarchy.hh"

#include <algorithm>

#include "area_model.hh"
#include "common/logging.hh"

namespace qmh {
namespace cqla {

HierarchyModel::HierarchyModel(const iontrap::Params &params)
    : _params(params), _perf(params), _transfer(params)
{
}

double
HierarchyModel::criticalTransferSeconds(
    const ecc::Code &code, unsigned parallel_transfers) const
{
    if (parallel_transfers == 0)
        qmh_fatal("hierarchy needs at least one transfer channel");
    return critical_transfer_qubits *
           _transfer.level2To1ChannelTime(code) /
           static_cast<double>(parallel_transfers);
}

double
HierarchyModel::level1Speedup(const ecc::Code &code, int n_bits,
                              unsigned parallel_transfers)
{
    const auto &timing = _perf.adderTiming(n_bits);
    const double cp = static_cast<double>(timing.critical_path_steps);
    const double t_l2 = cp * code.gateStepTime(2, _params);
    const double t_l1 = cp * code.gateStepTime(1, _params) +
                        criticalTransferSeconds(code, parallel_transfers);
    return t_l2 / t_l1;
}

double
HierarchyModel::level1AddFraction(const ecc::Code &code,
                                  int n_bits) const
{
    // The CQLA is provisioned for the 1024-bit factoring design point;
    // the addition mix is fixed by the budget there, not relaxed for
    // smaller runs (the paper uses one level-1 addition per two
    // level-2 additions for Steane at every size).
    const int design_point = std::max(n_bits, 1024);
    const ecc::FidelityBudget budget(code, _params,
                                     ecc::shorKqOps(design_point));
    return budget.recommendedLevel1AddFraction();
}

double
HierarchyModel::adderSpeedup(const ecc::Code &code, int n_bits,
                             unsigned parallel_transfers,
                             unsigned blocks)
{
    const double s1 = level1Speedup(code, n_bits, parallel_transfers);
    const double s2 = _perf.speedup(code, n_bits, blocks);
    const double f = level1AddFraction(code, n_bits);
    // Throughput-weighted mix: the level-1 stream overlaps with
    // level-2 execution, so the sustained per-adder speedup is the
    // add-count-weighted average of the two speedups.
    return f * s1 + (1.0 - f) * s2;
}

Table5Row
HierarchyModel::row(const ecc::Code &code, int n_bits,
                    unsigned parallel_transfers, unsigned blocks)
{
    Table5Row out;
    out.code = code.kind();
    out.n_bits = n_bits;
    out.parallel_transfers = parallel_transfers;
    out.blocks = blocks;
    out.level1_speedup =
        level1Speedup(code, n_bits, parallel_transfers);
    out.level2_speedup = _perf.speedup(code, n_bits, blocks);
    out.level1_add_fraction = level1AddFraction(code, n_bits);
    out.adder_speedup =
        adderSpeedup(code, n_bits, parallel_transfers, blocks);
    const AreaModel area(_params);
    out.area_reduced = area.areaReductionFactor(code, n_bits, blocks);
    out.gain_product = out.area_reduced * out.adder_speedup;
    return out;
}

std::optional<unsigned>
HierarchyModel::paperBlocks(int n_bits)
{
    // Table 5 pairs 256 and 512 with the larger Table-4 block count
    // and 1024 with the smaller one (its Area Reduced column).
    switch (n_bits) {
      case 256:  return 49;
      case 512:  return 81;
      case 1024: return 100;
      default:
        if (const auto blocks = PerformanceModel::paperBlockCounts(n_bits))
            return blocks->second;
        return std::nullopt;
    }
}

} // namespace cqla
} // namespace qmh

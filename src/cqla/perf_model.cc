#include "perf_model.hh"

#include <algorithm>

#include "area_model.hh"
#include "common/logging.hh"
#include "gen/draper.hh"

namespace qmh {
namespace cqla {

double
AdderTiming::boundedMakespanSteps(unsigned blocks) const
{
    const auto cp = static_cast<double>(critical_path_steps);
    if (blocks == sched::unlimited_blocks)
        return cp;
    const double work_bound =
        static_cast<double>(work_steps) / static_cast<double>(blocks);
    return std::max(cp, work_bound);
}

PerformanceModel::PerformanceModel(const iontrap::Params &params)
    : _params(params)
{
}

const AdderTiming &
PerformanceModel::adderTiming(int n_bits)
{
    auto it = _timings.find(n_bits);
    if (it != _timings.end())
        return it->second;

    // The evaluation adder is the forward carry-lookahead circuit
    // (see gen::UncomputeMode::CarriesLeftDirty).
    const auto program = gen::draperAdder(
        n_bits, true, nullptr, gen::UncomputeMode::CarriesLeftDirty);
    const sched::LatencyModel latency;
    const auto schedule =
        sched::roundSchedule(program, latency, sched::unlimited_blocks);

    AdderTiming timing;
    timing.critical_path_steps = schedule.makespan;
    timing.work_steps = schedule.busy_block_steps;
    return _timings.emplace(n_bits, timing).first->second;
}

double
PerformanceModel::adderSeconds(const ecc::Code &code, ecc::Level level,
                               int n_bits, unsigned blocks)
{
    const auto &timing = adderTiming(n_bits);
    return timing.boundedMakespanSteps(blocks) *
           code.gateStepTime(level, _params);
}

double
PerformanceModel::qlaAdderSeconds(int n_bits)
{
    return adderSeconds(ecc::Code::steane(), 2, n_bits,
                        sched::unlimited_blocks);
}

double
PerformanceModel::speedup(const ecc::Code &code, int n_bits,
                          unsigned blocks)
{
    return qlaAdderSeconds(n_bits) /
           adderSeconds(code, 2, n_bits, blocks);
}

double
PerformanceModel::utilization(int n_bits, unsigned blocks)
{
    if (blocks == sched::unlimited_blocks)
        qmh_panic("utilization needs a finite block count");
    const auto &timing = adderTiming(n_bits);
    const double makespan = timing.boundedMakespanSteps(blocks);
    return static_cast<double>(timing.work_steps) /
           (static_cast<double>(blocks) * makespan);
}

double
PerformanceModel::scheduledUtilization(int n_bits, unsigned blocks)
{
    if (blocks == sched::unlimited_blocks)
        qmh_panic("scheduledUtilization needs a finite block count");
    const auto key = std::make_pair(n_bits, blocks);
    const auto it = _sched_util.find(key);
    if (it != _sched_util.end())
        return it->second;

    const auto program = gen::draperAdder(
        n_bits, true, nullptr, gen::UncomputeMode::CarriesLeftDirty);
    const sched::LatencyModel latency;
    const auto schedule = sched::roundSchedule(program, latency, blocks);
    const double util = schedule.utilization();
    _sched_util.emplace(key, util);
    return util;
}

Table4Row
PerformanceModel::table4Row(int n_bits, unsigned blocks)
{
    const AreaModel area(_params);
    const auto steane = ecc::Code::steane();
    const auto bacon_shor = ecc::Code::baconShor();

    Table4Row row;
    row.n_bits = n_bits;
    row.blocks = blocks;
    row.area_reduced_steane =
        area.areaReductionFactor(steane, n_bits, blocks);
    row.area_reduced_bacon_shor =
        area.areaReductionFactor(bacon_shor, n_bits, blocks);
    row.speedup_steane = speedup(steane, n_bits, blocks);
    row.speedup_bacon_shor = speedup(bacon_shor, n_bits, blocks);
    row.gain_product_steane =
        row.area_reduced_steane * row.speedup_steane;
    row.gain_product_bacon_shor =
        row.area_reduced_bacon_shor * row.speedup_bacon_shor;
    return row;
}

std::optional<std::pair<unsigned, unsigned>>
PerformanceModel::paperBlockCounts(int n_bits)
{
    switch (n_bits) {
      case 32:   return std::pair{4u, 9u};
      case 64:   return std::pair{9u, 16u};
      case 128:  return std::pair{16u, 25u};
      case 256:  return std::pair{36u, 49u};
      case 512:  return std::pair{64u, 81u};
      case 1024: return std::pair{100u, 121u};
      default:   return std::nullopt;
    }
}

} // namespace cqla
} // namespace qmh

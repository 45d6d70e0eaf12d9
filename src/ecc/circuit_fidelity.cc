#include "circuit_fidelity.hh"

#include <cmath>

#include "common/logging.hh"
#include "threshold.hh"

namespace qmh {
namespace ecc {

ScheduleFidelity::ScheduleFidelity(const Code &code,
                                   const iontrap::Params &params)
    : _code(code), _params(params)
{
}

std::uint32_t
ScheduleFidelity::slotsFor(circuit::GateKind kind)
{
    using circuit::GateKind;
    switch (kind) {
      case GateKind::Cnot:    return 1;
      case GateKind::Cphase:  return 2;
      case GateKind::Swap:    return 3;
      case GateKind::Toffoli: return 15;
      case GateKind::Barrier: return 0;
      default:                return 1;
    }
}

double
ScheduleFidelity::slotFailureRate(Level level) const
{
    return localFailureRate(level, _params.averageFailure(),
                            _code.threshold());
}

FidelityReport
ScheduleFidelity::analyze(const circuit::Program &program,
                          Level level) const
{
    return analyzeMixed(program, level == 1 ? 1.0 : 0.0);
}

FidelityReport
ScheduleFidelity::analyzeMixed(const circuit::Program &program,
                               double level1_share) const
{
    if (level1_share < 0.0 || level1_share > 1.0)
        qmh_panic("analyzeMixed: fraction out of range");

    FidelityReport report;
    for (const auto &inst : program.instructions())
        report.logical_slots += slotsFor(inst.kind);

    report.level1_slots = static_cast<std::uint64_t>(std::llround(
        level1_share * static_cast<double>(report.logical_slots)));
    report.level2_slots = report.logical_slots - report.level1_slots;

    const double p1 = slotFailureRate(1);
    const double p2 = slotFailureRate(2);
    report.expected_failures =
        static_cast<double>(report.level1_slots) * p1 +
        static_cast<double>(report.level2_slots) * p2;
    report.success_probability = std::exp(-report.expected_failures);

    // Wall-clock share: a level-1 slot is faster by the serialization
    // ratio.
    const double t1 = static_cast<double>(report.level1_slots);
    const double t2 = static_cast<double>(report.level2_slots) *
                      _code.serializationRatio();
    report.level1_time_fraction =
        (t1 + t2) > 0.0 ? t1 / (t1 + t2) : 0.0;
    return report;
}

bool
ScheduleFidelity::sampleRun(const circuit::Program &program, Level level,
                            Random &rng) const
{
    const double p = slotFailureRate(level);
    std::uint64_t slots = 0;
    for (const auto &inst : program.instructions())
        slots += slotsFor(inst.kind);
    // One binomial draw over all slots is equivalent to per-slot
    // Bernoulli sampling and far faster for big programs.
    return rng.binomial(slots, p) == 0;
}

} // namespace ecc
} // namespace qmh

#include "threshold.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"

namespace qmh {
namespace ecc {

double
localFailureRate(Level level, double p0, double pth, double r)
{
    if (level < 0)
        qmh_panic("negative concatenation level");
    if (p0 <= 0.0 || pth <= 0.0 || r <= 0.0)
        qmh_panic("localFailureRate: parameters must be positive");
    if (level == 0)
        return p0;
    const double exponent = std::pow(2.0, level);
    return (pth / std::pow(r, level)) * std::pow(p0 / pth, exponent);
}

double
shorKqOps(int n_bits)
{
    if (n_bits < 2)
        qmh_fatal("shorKqOps: problem size must be at least 2 bits");
    const double n = n_bits;
    const double steps = kq_step_coeff * n * n * std::log2(n);
    const double qubits = 5.0 * n;
    return steps * qubits;
}

FidelityBudget::FidelityBudget(const Code &code,
                               const iontrap::Params &params,
                               double total_ops)
    : _code(code), _params(params), _total_ops(total_ops)
{
    if (total_ops <= 0.0)
        qmh_fatal("FidelityBudget: total_ops must be positive");
}

double
FidelityBudget::failureRate(Level level) const
{
    return localFailureRate(level, _params.averageFailure(),
                            _code.threshold());
}

double
FidelityBudget::maxLevel1OpsFraction() const
{
    // Expected failures: f*N*Pf(1) + (1-f)*N*Pf(2) <= 1.
    const double p1 = failureRate(1);
    const double p2 = failureRate(2);
    const double budget = 1.0 - _total_ops * p2;
    if (budget <= 0.0)
        return 0.0;
    const double denom = _total_ops * (p1 - p2);
    if (denom <= 0.0)
        return 1.0;  // level 1 is no worse than level 2
    return std::clamp(budget / denom, 0.0, 1.0);
}

double
FidelityBudget::level1TimeFraction(double ops_fraction) const
{
    if (ops_fraction < 0.0 || ops_fraction > 1.0)
        qmh_panic("level1TimeFraction: fraction out of range");
    // A level-1 gate slot is faster than a level-2 slot by the EC
    // serialization ratio.
    const double t1 = 1.0;
    const double t2 = _code.serializationRatio();
    const double time_l1 = ops_fraction * t1;
    const double time_l2 = (1.0 - ops_fraction) * t2;
    if (time_l1 + time_l2 <= 0.0)
        return 0.0;
    return time_l1 / (time_l1 + time_l2);
}

double
FidelityBudget::maxLevel1TimeFraction() const
{
    return level1TimeFraction(maxLevel1OpsFraction());
}

double
FidelityBudget::recommendedLevel1AddFraction() const
{
    // Paper: one level-1 addition for every two level-2 additions under
    // Steane; the Bacon-Shor budget is loose enough to invert the mix.
    const double max_ops = maxLevel1OpsFraction();
    if (max_ops >= 1.0)
        return 2.0 / 3.0;
    return std::min(1.0 / 3.0, max_ops / 2.0);
}

} // namespace ecc
} // namespace qmh

#include "montecarlo.hh"

#include <cmath>

#include "common/logging.hh"

namespace qmh {
namespace ecc {

EcMonteCarlo::EcMonteCarlo(const Code &code, double ec_noise_factor)
    : _code(code), _ec_noise_factor(ec_noise_factor)
{
    if (ec_noise_factor < 1.0)
        qmh_fatal("ec_noise_factor must be >= 1");
}

double
EcMonteCarlo::effectiveLocations() const
{
    return _code.n() * _ec_noise_factor;
}

bool
EcMonteCarlo::blockFails(Level level, double p0, Random &rng) const
{
    const auto locations =
        static_cast<std::uint64_t>(std::llround(effectiveLocations()));
    if (level == 1) {
        std::uint64_t errors = 0;
        for (std::uint64_t i = 0; i < locations && errors < 2; ++i)
            errors += rng.bernoulli(p0) ? 1 : 0;
        return errors >= 2;
    }
    // A level-L block fails when two or more of its sub-blocks fail
    // within the cycle.
    std::uint64_t failed = 0;
    for (int i = 0; i < _code.n() && failed < 2; ++i)
        failed += blockFails(level - 1, p0, rng) ? 1 : 0;
    return failed >= 2;
}

McEstimate
EcMonteCarlo::estimate(Level level, double p0, std::uint64_t trials,
                       Random &rng) const
{
    if (level < 1)
        qmh_panic("EcMonteCarlo: level must be >= 1");
    if (trials == 0)
        qmh_panic("EcMonteCarlo: need at least one trial");

    McEstimate est;
    est.trials = trials;
    for (std::uint64_t t = 0; t < trials; ++t)
        est.failures += blockFails(level, p0, rng) ? 1 : 0;
    est.rate = static_cast<double>(est.failures) /
               static_cast<double>(trials);
    est.std_error =
        std::sqrt(est.rate * (1.0 - est.rate) /
                  static_cast<double>(trials));
    return est;
}

double
EcMonteCarlo::analytic(Level level, double p0) const
{
    if (level < 1)
        qmh_panic("EcMonteCarlo: level must be >= 1");
    const double m = effectiveLocations();
    // P[>= 2 of m locations err] = 1 - P[none] - P[exactly one]: exact
    // for the sampled model when m is whole (blockFails draws
    // llround(m) locations), and exact per level above 1, where the n
    // sub-blocks fail independently at the level below's rate.
    auto level_rate = [](double m_loc, double p) {
        const double none = std::pow(1.0 - p, m_loc);
        const double one = m_loc * p * std::pow(1.0 - p, m_loc - 1.0);
        const double rate = 1.0 - none - one;
        return rate < 0.0 ? 0.0 : rate;
    };
    double rate = level_rate(m, p0);
    for (Level l = 2; l <= level; ++l)
        rate = level_rate(static_cast<double>(_code.n()), rate);
    return rate;
}

double
EcMonteCarlo::pseudoThreshold() const
{
    double lo = 1e-8;
    double hi = 0.5;
    // analytic(1, p) - p is negative below threshold, positive above.
    for (int iter = 0; iter < 200; ++iter) {
        const double mid = std::sqrt(lo * hi);
        if (analytic(1, mid) < mid)
            lo = mid;
        else
            hi = mid;
    }
    return std::sqrt(lo * hi);
}

} // namespace ecc
} // namespace qmh

/**
 * @file
 * Monte-Carlo validation of the concatenated-code reliability model.
 *
 * A deliberately simple stochastic model of one error-correction cycle:
 * each of the n data qubits of a block (plus the ancilla interactions
 * touching it) suffers an error with some physical probability; a
 * distance-3 block corrects one error and fails on two or more. At
 * higher levels the same combinatorics applies to sub-block failures.
 * The point is not absolute accuracy but checking the structural
 * predictions the architecture rests on: quadratic suppression per
 * level (p -> A p^2), double-exponential suppression with L, and the
 * existence of a pseudo-threshold.
 */

#ifndef QMH_ECC_MONTECARLO_HH
#define QMH_ECC_MONTECARLO_HH

#include <cstdint>

#include "code.hh"
#include "common/random.hh"

namespace qmh {
namespace ecc {

/** Result of a Monte-Carlo logical-error estimate. */
struct McEstimate
{
    double rate = 0.0;      ///< estimated logical failure probability
    double std_error = 0.0; ///< binomial standard error of the estimate
    std::uint64_t trials = 0;
    std::uint64_t failures = 0;
};

/** Monte-Carlo simulator of recursive error correction for one code. */
class EcMonteCarlo
{
  public:
    /**
     * @param code code under test
     * @param ec_noise_factor multiplies the per-qubit error probability
     *        to account for the extra locations the EC circuit itself
     *        introduces (ancilla interactions, movement)
     */
    explicit EcMonteCarlo(const Code &code, double ec_noise_factor = 2.0);

    /**
     * Estimate the probability that a level-@p level block suffers a
     * logical error in one EC cycle, given physical error rate @p p0.
     */
    McEstimate estimate(Level level, double p0, std::uint64_t trials,
                        Random &rng) const;

    /**
     * Closed form of the same quantity: P[>= 2 of m locations err]
     * with m = effectiveLocations(), then P[>= 2 of n sub-blocks fail]
     * per level above 1. This is the exact failure probability of the
     * model blockFails() samples, at every level, whenever m is a
     * whole number; the sampler draws llround(m) locations, while
     * this uses the real m.
     */
    double analytic(Level level, double p0) const;

    /**
     * Pseudo-threshold of the *model*: the p0 at which one level of
     * encoding stops helping (analytic level-1 rate equals p0). Found
     * by bisection.
     */
    double pseudoThreshold() const;

    /** Effective number of error locations per block. */
    double effectiveLocations() const;

  private:
    /** One trial: does a level-L block fail? */
    bool blockFails(Level level, double p0, Random &rng) const;

    Code _code;
    double _ec_noise_factor;
};

} // namespace ecc
} // namespace qmh

#endif // QMH_ECC_MONTECARLO_HH

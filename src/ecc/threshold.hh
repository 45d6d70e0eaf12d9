/**
 * @file
 * Fault-tolerance threshold analysis (paper Section 5.2, Eq. 1).
 *
 * Implements Gottesman's local-architecture failure estimate
 *
 *   Pf(L) = (pth / r^L) * (p0 / pth)^(2^L)
 *
 * and the fidelity budget that decides how much of an application may
 * execute at the fast-but-leaky level-1 encoding: a computation of
 * size S = K*Q logical-gate slots tolerates about one expected logical
 * failure, so the admissible number of level-1 operations is
 * 1 / Pf(1).
 */

#ifndef QMH_ECC_THRESHOLD_HH
#define QMH_ECC_THRESHOLD_HH

#include "code.hh"
#include "iontrap/params.hh"

namespace qmh {
namespace ecc {

/**
 * Average communication distance between level-1 blocks, in cells, for
 * the QLA-style layout (paper: "aligned in QLA to allow r = 12 cells
 * on average").
 */
constexpr double qla_block_distance = 12.0;

/**
 * Eq. 1: expected component failure rate at recursion level @p level
 * for physical failure rate @p p0, threshold @p pth and local
 * communication distance @p r.
 */
double localFailureRate(Level level, double p0, double pth,
                        double r = qla_block_distance);

/**
 * Application size model for n-bit quantum modular exponentiation:
 * the KQ product (logical timesteps x logical qubits) with
 * K = kq_step_coeff * n^2 * log2(n) and Q = 5n. The coefficient is
 * calibrated so that the Steane fidelity budget reproduces the paper's
 * "only 2% of total execution time in level 1" at n = 1024 (see
 * DESIGN.md section 4.7).
 */
double shorKqOps(int n_bits);

/** Calibrated timestep coefficient of shorKqOps(). */
constexpr double kq_step_coeff = 14.0;

/**
 * Decides how much level-1 execution an application can afford under a
 * given code.
 */
class FidelityBudget
{
  public:
    /**
     * @param code the error-correcting code in use
     * @param params physical parameter set
     * @param total_ops total logical-gate slots of the application
     *        (e.g. shorKqOps(n))
     */
    FidelityBudget(const Code &code, const iontrap::Params &params,
                   double total_ops);

    /** Eq. 1 failure rate of this code at @p level. */
    double failureRate(Level level) const;

    /**
     * Largest fraction of operations that may run at level 1 (with the
     * rest at level 2), clamped to [0, 1].
     */
    double maxLevel1OpsFraction() const;

    /**
     * Fraction of wall-clock time spent at level 1 when @p ops_fraction
     * of the operations run there (level-1 ops are faster by the EC
     * serialization ratio).
     */
    double level1TimeFraction(double ops_fraction) const;

    /** Time fraction corresponding to maxLevel1OpsFraction(). */
    double maxLevel1TimeFraction() const;

    /**
     * The paper's recommended mix: the fraction of *additions* executed
     * at level 1. Steane affords 1 in 3; Bacon-Shor's higher threshold
     * affords 2 in 3 (paper: "more favourable").
     */
    double recommendedLevel1AddFraction() const;

  private:
    Code _code;
    iontrap::Params _params;
    double _total_ops;
};

} // namespace ecc
} // namespace qmh

#endif // QMH_ECC_THRESHOLD_HH

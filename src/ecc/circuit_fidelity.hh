/**
 * @file
 * Schedule-level fidelity analysis: converts a logical program plus an
 * encoding choice into an expected-logical-failure count and success
 * probability, using the Eq.-1 component failure rates. This is the
 * quantitative backing for the paper's claim that the hierarchy
 * preserves overall computation fidelity (Section 5.2).
 */

#ifndef QMH_ECC_CIRCUIT_FIDELITY_HH
#define QMH_ECC_CIRCUIT_FIDELITY_HH

#include <cstdint>

#include "circuit/program.hh"
#include "code.hh"
#include "common/random.hh"
#include "iontrap/params.hh"

namespace qmh {
namespace ecc {

/** Outcome of analyzing one program under one encoding policy. */
struct FidelityReport
{
    std::uint64_t logical_slots = 0;   ///< gate-steps executed
    std::uint64_t level1_slots = 0;    ///< slots run at level 1
    std::uint64_t level2_slots = 0;    ///< slots run at level 2
    double expected_failures = 0.0;    ///< sum of per-slot Eq.-1 rates
    double success_probability = 0.0;  ///< exp(-expected_failures)
    double level1_time_fraction = 0.0; ///< wall-clock share at level 1
};

/**
 * Analyzer for programs executed on a CQLA under a given code.
 * Every gate occupies latency-model slots; each slot is one
 * error-corrected component in the Eq.-1 sense.
 */
class ScheduleFidelity
{
  public:
    ScheduleFidelity(const Code &code, const iontrap::Params &params);

    /** Gate-steps a gate kind occupies (matches sched::LatencyModel). */
    static std::uint32_t slotsFor(circuit::GateKind kind);

    /** Analyze a program executed entirely at @p level. */
    FidelityReport analyze(const circuit::Program &program,
                           Level level) const;

    /**
     * Analyze the hierarchy execution: the first
     * @p level1_share of the program's slots run at level 1, the
     * rest at level 2 (the paper interleaves whole additions; the
     * failure arithmetic only depends on the totals).
     */
    FidelityReport analyzeMixed(const circuit::Program &program,
                                double level1_share) const;

    /**
     * Monte-Carlo run: sample per-slot logical failures; returns true
     * when the whole program executes without one.
     */
    bool sampleRun(const circuit::Program &program, Level level,
                   Random &rng) const;

    /** Eq.-1 failure rate per slot at @p level. */
    double slotFailureRate(Level level) const;

  private:
    Code _code;
    iontrap::Params _params;
};

} // namespace ecc
} // namespace qmh

#endif // QMH_ECC_CIRCUIT_FIDELITY_HH

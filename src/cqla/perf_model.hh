/**
 * @file
 * CQLA performance model (paper Section 5.1, Table 4).
 *
 * The QLA baseline executes the Draper adder's structural rounds with
 * unlimited parallelism; the CQLA executes the same circuit on B
 * compute blocks. The compressed makespan follows the work-conserving
 * bound max(critical path, work / B) — blocks pipeline ahead through
 * round slack, so the bound is tight (the paper's measured speedups
 * match it across every table entry; see EXPERIMENTS.md).
 *
 * Both quantities are *measured* from the generated gate-level adder
 * with the round-synchronous scheduler, not closed forms.
 */

#ifndef QMH_CQLA_PERF_MODEL_HH
#define QMH_CQLA_PERF_MODEL_HH

#include <cstdint>
#include <map>
#include <optional>
#include <utility>

#include "ecc/code.hh"
#include "iontrap/params.hh"
#include "sched/scheduler.hh"

namespace qmh {
namespace cqla {

/** Gate-step accounting of one generated adder circuit. */
struct AdderTiming
{
    std::uint64_t critical_path_steps = 0; ///< structural-round CP
    std::uint64_t work_steps = 0;          ///< total block-steps of work

    /** Work-conserving makespan bound on @p blocks (0 = unlimited). */
    double boundedMakespanSteps(unsigned blocks) const;
};

/** Table-4 style evaluation row. */
struct Table4Row
{
    int n_bits = 0;
    unsigned blocks = 0;
    double area_reduced_steane = 0.0;
    double area_reduced_bacon_shor = 0.0;
    double speedup_steane = 0.0;
    double speedup_bacon_shor = 0.0;
    double gain_product_steane = 0.0;
    double gain_product_bacon_shor = 0.0;
};

/** Timing engine over generated adders; memoizes per width. */
class PerformanceModel
{
  public:
    explicit PerformanceModel(const iontrap::Params &params);

    /** Measure (and cache) the n-bit Draper adder's timing profile. */
    const AdderTiming &adderTiming(int n_bits);

    /**
     * Seconds per adder under @p code at @p level on @p blocks blocks
     * (0 = unlimited).
     */
    double adderSeconds(const ecc::Code &code, ecc::Level level,
                        int n_bits, unsigned blocks);

    /** QLA baseline: Steane level 2, unlimited parallelism. */
    double qlaAdderSeconds(int n_bits);

    /** Table 4 speedup: QLA adder time over CQLA adder time. */
    double speedup(const ecc::Code &code, int n_bits, unsigned blocks);

    /** Utilization at @p blocks under the work-conserving bound. */
    double utilization(int n_bits, unsigned blocks);

    /**
     * Detailed utilization from the batched round-synchronous
     * schedule (used for Fig. 6a; slightly below the bound).
     */
    double scheduledUtilization(int n_bits, unsigned blocks);

    /** Complete Table-4 row (areas and gain products included). */
    Table4Row table4Row(int n_bits, unsigned blocks);

    /**
     * The paper's two block counts for an @p n_bits adder (Table 4
     * column 2); nullopt for a size the table does not list.
     */
    static std::optional<std::pair<unsigned, unsigned>>
    paperBlockCounts(int n_bits);

  private:
    iontrap::Params _params;
    std::map<int, AdderTiming> _timings;
    std::map<std::pair<int, unsigned>, double> _sched_util;
};

} // namespace cqla
} // namespace qmh

#endif // QMH_CQLA_PERF_MODEL_HH

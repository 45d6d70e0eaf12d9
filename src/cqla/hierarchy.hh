/**
 * @file
 * Quantum memory hierarchy model (paper Sections 3.3 and 5.2,
 * Table 5): memory at level 2, cache and a compute region at level 1,
 * joined by the code-transfer network.
 *
 * Level-1 additions are fast but each consumes transfer-network
 * bandwidth: operands prefetch during the preceding level-2 additions,
 * and only the immediate-dependence set (the sum/carry segment the
 * previous addition produced last) serializes with the level-1
 * execution. The admissible mix of level-1 and level-2 additions comes
 * from the Eq. 1 fidelity budget (Steane: one in three; Bacon-Shor:
 * two in three).
 */

#ifndef QMH_CQLA_HIERARCHY_HH
#define QMH_CQLA_HIERARCHY_HH

#include "ecc/code.hh"
#include "ecc/threshold.hh"
#include "iontrap/params.hh"
#include "net/transfer.hh"
#include "perf_model.hh"

namespace qmh {
namespace cqla {

/** Table-5 style evaluation row. */
struct Table5Row
{
    ecc::CodeKind code{};
    int n_bits = 0;
    unsigned parallel_transfers = 0;
    unsigned blocks = 0;
    double level1_speedup = 0.0;
    double level2_speedup = 0.0;
    double level1_add_fraction = 0.0;
    double adder_speedup = 0.0;
    double area_reduced = 0.0;
    double gain_product = 0.0;
};

/** Analytic hierarchy model. */
class HierarchyModel
{
  public:
    explicit HierarchyModel(const iontrap::Params &params);

    /**
     * Logical qubits that cannot be prefetched ahead of a level-1
     * addition: the sum/carry segment produced at the tail of the
     * preceding dependent addition. Calibrated to the paper's
     * Table 5 level-1 speedups (DESIGN.md section 4.8).
     */
    static constexpr double critical_transfer_qubits = 55.0;

    /**
     * Speedup of one adder executed at level 1 (with its transfer
     * cost) over the same adder at level 2, using
     * @p parallel_transfers transfer-network channels.
     */
    double level1Speedup(const ecc::Code &code, int n_bits,
                         unsigned parallel_transfers);

    /** Non-overlapped transfer time charged to one level-1 adder. */
    double criticalTransferSeconds(const ecc::Code &code,
                                   unsigned parallel_transfers) const;

    /** Fidelity-admissible fraction of additions run at level 1. */
    double level1AddFraction(const ecc::Code &code, int n_bits) const;

    /**
     * Combined per-adder speedup of the full hierarchy: the
     * throughput-weighted mix of level-1 and level-2 additions.
     */
    double adderSpeedup(const ecc::Code &code, int n_bits,
                        unsigned parallel_transfers, unsigned blocks);

    /** Complete Table-5 row. */
    Table5Row row(const ecc::Code &code, int n_bits,
                  unsigned parallel_transfers, unsigned blocks);

    /** Block counts the paper's Table 5 pairs with each size. */
    static unsigned paperBlocks(int n_bits);

  private:
    iontrap::Params _params;
    PerformanceModel _perf;
    net::TransferNetwork _transfer;
};

} // namespace cqla
} // namespace qmh

#endif // QMH_CQLA_HIERARCHY_HH

/**
 * @file
 * CQLA area model (paper Sections 3 and 5.1, Table 4 area columns).
 *
 * Bottom-up construction: ion counts per logical qubit (ecc::Code) x
 * trapping-region area (iontrap::Params) x a region-specific layout
 * factor. Three region classes exist:
 *
 *  - QLA baseline tiles: every logical qubit carries full (1:2)
 *    ancilla plus the homogeneous teleportation infrastructure that
 *    supports computation anywhere (large provisioning factor);
 *  - CQLA dense memory: (8:1) data:ancilla, minimal channels;
 *  - CQLA compute blocks: nine data qubits with (1:2) ancilla, full
 *    teleportation islands and intra-block routing.
 *
 * The provisioning factors are calibrated once against the coefficient
 * structure of the paper's Table 4 (see DESIGN.md section 4.3) and
 * then every row of the table is a prediction.
 */

#ifndef QMH_CQLA_AREA_MODEL_HH
#define QMH_CQLA_AREA_MODEL_HH

#include "ecc/code.hh"
#include "iontrap/params.hh"

namespace qmh {
namespace cqla {

/** Area of each CQLA region, in mm^2. */
struct AreaBreakdown
{
    double memory_mm2 = 0.0;
    double compute_mm2 = 0.0;
    double cache_mm2 = 0.0;
    double transfer_mm2 = 0.0;

    double
    total() const
    {
        return memory_mm2 + compute_mm2 + cache_mm2 + transfer_mm2;
    }
};

/** Area model for QLA and CQLA configurations. */
class AreaModel
{
  public:
    explicit AreaModel(const iontrap::Params &params);

    /** Logical data qubits a compute block holds (paper: 9). */
    static constexpr int qubits_per_block = 9;

    /** Logical ancilla per data qubit in compute regions. */
    static constexpr double compute_ancilla_ratio = 2.0;

    /** Logical ancilla per data qubit in dense memory (8:1). */
    static constexpr double memory_ancilla_ratio = 1.0 / 8.0;

    /**
     * Application footprint: logical data qubits resident in memory
     * for n-bit modular exponentiation (the two operand registers;
     * workspace lives in the compute blocks and cache).
     */
    static int memoryQubits(int n_bits) { return 2 * n_bits; }

    /**
     * QLA homogeneous-tile provisioning over the bare Table-2 tile:
     * teleportation islands, EPR purification and full-parallelism
     * channels at every logical qubit.
     */
    static constexpr double qla_provisioning = 6.0;

    /** Compute-block routing overhead over its nine bare tiles. */
    static constexpr double block_routing = 1.3;

    /**
     * Memory layout factor over bare ion packing, per code (Steane /
     * Bacon-Shor). Memory drops the per-tile channel infrastructure;
     * the Bacon-Shor gauge structure packs additionally tighter.
     */
    double memoryLayoutFactor(const ecc::Code &code) const;

    /** Area of one logical qubit in the dense memory, mm^2. */
    double memoryQubitAreaMm2(const ecc::Code &code,
                              ecc::Level level) const;

    /** Area of one compute block (9 data + 18 ancilla), mm^2. */
    double computeBlockAreaMm2(const ecc::Code &code,
                               ecc::Level level) const;

    /** Area of the homogeneous QLA for @p n_bits, mm^2 (Steane L2). */
    double qlaAreaMm2(int n_bits) const;

    /**
     * Full CQLA breakdown: dense memory for the application footprint,
     * @p blocks level-2 compute blocks, an optional level-1 cache of
     * @p cache_qubits logical qubits (hierarchy configurations), and
     * the code-transfer region (one strip per transfer channel).
     */
    AreaBreakdown cqlaArea(const ecc::Code &code, int n_bits,
                           unsigned blocks, unsigned cache_qubits = 0,
                           unsigned transfer_channels = 0) const;

    /** Table 4 metric: QLA area / CQLA area. */
    double areaReductionFactor(const ecc::Code &code, int n_bits,
                               unsigned blocks) const;

  private:
    iontrap::Params _params;
};

} // namespace cqla
} // namespace qmh

#endif // QMH_CQLA_AREA_MODEL_HH

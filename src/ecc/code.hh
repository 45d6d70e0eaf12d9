/**
 * @file
 * Quantum error-correcting code models: the Steane [[7,1,3]] code and
 * the Bacon-Shor [[9,1,3]] code, with the recursive (concatenated)
 * latency, reliability and area metrics the CQLA analysis is built on
 * (paper Section 4 and Table 2).
 *
 * Modeling approach (see DESIGN.md section 4.2): a level-1 error
 * correction extracts two syndromes (bit-flip and phase-flip); the
 * per-syndrome cycle count is a structural estimate calibrated to the
 * paper's reported level-1 latencies (Steane 154 cycles/syndrome,
 * Bacon-Shor 60). Level L >= 2 latency follows the serialized recursive
 * construction, expressed as a per-code serialization ratio. Areas are
 * bottom-up: ion counts x trapping-region area x a per-code layout
 * compactness factor.
 */

#ifndef QMH_ECC_CODE_HH
#define QMH_ECC_CODE_HH

#include <cstdint>
#include <string>

#include "iontrap/params.hh"

namespace qmh {
namespace ecc {

/** Supported codes. */
enum class CodeKind {
    Steane713,    ///< Steane [[7,1,3]]
    BaconShor913  ///< Bacon-Shor [[9,1,3]] (optimized subsystem code)
};

/** Concatenation level. Level 0 is a bare physical qubit. */
using Level = int;

/**
 * An [[n,k,d]] code together with the structural constants of its
 * fault-tolerant error-correction circuit on the ion-trap layout.
 *
 * Instances are value types; obtain them from steane() / baconShor()
 * or byKind().
 */
class Code
{
  public:
    /** The Steane [[7,1,3]] code (paper Section 4.1). */
    static Code steane();

    /** The optimized Bacon-Shor [[9,1,3]] code (paper Section 4.1). */
    static Code baconShor();

    /** Lookup by kind. */
    static Code byKind(CodeKind kind);

    CodeKind kind() const { return _kind; }
    const std::string &name() const { return _name; }
    /** Short label used in tables, e.g. "7" or "9". */
    const std::string &shortName() const { return _short_name; }

    /** Physical qubits per logical qubit (one level). */
    int n() const { return _n; }

    /** Data ions of a level-L logical qubit: n^L. */
    std::int64_t dataIons(Level level) const;

    /**
     * Ancilla ions accompanying a level-L logical qubit under the
     * standard QLA provisioning (two logical ancilla qubits plus
     * verification ancilla; paper Table 2: Steane 21/441, Bacon-Shor
     * 12/298 at levels 1/2).
     */
    std::int64_t ancillaIons(Level level) const;

    /**
     * Ions of a level-L data qubit provisioned with @p ancilla_ratio
     * logical ancilla qubits per data qubit (2.0 for compute regions,
     * 1/8 for the CQLA dense memory).
     */
    double ionsPerDataQubit(Level level, double ancilla_ratio) const;

    /** Number of syndromes per EC (bit-flip + phase-flip). */
    int syndromesPerEc() const { return 2; }

    /**
     * Ratio EC(L) / EC(L-1) of the fully serialized recursive error
     * correction (paper: ~two orders of magnitude; Steane 97x,
     * Bacon-Shor 83x).
     */
    double serializationRatio() const { return _serialization_ratio; }

    /** Fundamental cycles of a level-1 error correction (both syndromes). */
    int level1EcCycles() const;

    /** Error-correction latency at @p level, in seconds. */
    double ecTime(Level level, const iontrap::Params &params) const;

    /**
     * Latency of one transversal logical gate *step* at @p level: the
     * physical transversal gate plus the following error correction.
     * This is the per-gate cost used when scheduling circuits.
     */
    double gateStepTime(Level level, const iontrap::Params &params) const;

    /**
     * The paper's "transversal gate time" metric (Table 2): error
     * correction before, the gate, and error correction after.
     */
    double transversalGateTime(Level level,
                               const iontrap::Params &params) const;

    /**
     * Area of a level-L logical qubit with @p ancilla_ratio logical
     * ancilla per data qubit, in mm^2. The default ratio 2.0 gives the
     * paper's Table 2 "qubit size".
     */
    double qubitAreaMm2(Level level, const iontrap::Params &params,
                        double ancilla_ratio = 2.0) const;

    /**
     * Per-code fault-tolerance threshold used in the Gottesman local-
     * architecture estimate (Eq. 1). Steane: 7.5e-5 (Svore et al.,
     * movement included). Bacon-Shor: 1.5e-4 (documented calibration;
     * the paper states only "more favourable").
     */
    double threshold() const { return _threshold; }

    /**
     * Teleportation cost scale: logical data ions that must physically
     * move in a logical teleport (paper: "only data qubits are involved
     * during teleportation", so Bacon-Shor pays more than Steane).
     */
    std::int64_t teleportIons(Level level) const { return dataIons(level); }

    /**
     * Transfer-network channel slots one logical transfer of this code
     * occupies (Bacon-Shor moves larger data blocks; paper Section
     * 5.1 notes its bandwidth requirement is higher).
     */
    double transferChannelCost() const { return _transfer_channel_cost; }

  private:
    Code() = default;

    CodeKind _kind{};
    std::string _name;
    std::string _short_name;
    int _n = 0;
    int _l1_cycles_per_syndrome = 0;
    double _serialization_ratio = 0.0;
    double _layout_factor = 0.0;
    double _threshold = 0.0;
    double _transfer_channel_cost = 1.0;
    std::int64_t _l1_ancilla = 0;
    std::int64_t _l2_ancilla = 0;
};

} // namespace ecc
} // namespace qmh

#endif // QMH_ECC_CODE_HH

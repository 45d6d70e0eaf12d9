/**
 * @file
 * Generator for the Draper/Kutin/Rains/Svore logarithmic-depth quantum
 * carry-lookahead adder (quant-ph/0406142) — the workload at the centre
 * of the paper's evaluation ("the Draper carry-lookahead adder is its
 * most efficient implementation").
 *
 * The generated circuit is the in-place adder: b <- a + b (mod 2^n),
 * with an optional carry-out qubit, built from X/CNOT/Toffoli only.
 * Carries are computed by a Brent-Kung propagate/generate prefix tree
 * (Toffoli depth O(log n)) and erased with the complement trick: the
 * carry string of (a, NOT s) equals the carry string of (a, b), so
 * running the carry computation in reverse on the complemented sum
 * returns every ancilla to zero.
 */

#ifndef QMH_GEN_DRAPER_HH
#define QMH_GEN_DRAPER_HH

#include "circuit/program.hh"

namespace qmh {
namespace gen {

/** Register map of a generated adder circuit. */
struct AdderLayout
{
    int bits = 0;        ///< operand width n
    int a_offset = 0;    ///< qubits [a_offset, a_offset+n): operand a
    int b_offset = 0;    ///< qubits [b_offset, b_offset+n): b, then sum
    int carry_offset = 0;///< qubits [carry_offset, ...): carry ancilla z
    int tree_offset = 0; ///< propagate-tree ancilla
    int tree_size = 0;   ///< number of tree ancilla qubits
    int total_qubits = 0;
    bool keeps_carry = false;
    /** Index of the carry-out qubit (valid when keeps_carry). */
    // qmh-lint: allow(test-only-api): the window the adder tests (tests/test_adders.cc) read the carry-out bit through
    int carryOutQubit() const { return carry_offset + bits - 1; }
};

/** How much of the scratch state the adder cleans up. */
enum class UncomputeMode {
    /**
     * Erase the carry register with the complement trick; ancilla all
     * return to zero (fully reusable adder).
     */
    Full,
    /**
     * Stop after the sum is written: the propagate tree is clean but
     * the carry register still holds the carry string. This is the
     * forward-only adder whose parallelism profile matches the paper's
     * Fig. 2 (peak ~n, average ~n/4 in Toffoli slots).
     */
    CarriesLeftDirty
};

/**
 * Build the n-bit in-place carry-lookahead adder.
 *
 * @param n operand width (>= 1)
 * @param keep_carry when true, the carry-out survives in
 *        layout.carryOutQubit(); when false every ancilla is returned
 *        to zero and the sum is taken mod 2^n (Full mode only)
 * @param layout_out optional register map for callers that need to
 *        load/read operands (tests, cache simulation)
 * @param mode scratch clean-up policy
 * @param with_barriers emit a scheduling barrier after each structural
 *        round (the paper's static compiler issues rounds as written;
 *        disable for overlap ablation studies)
 */
circuit::Program draperAdder(int n, bool keep_carry = true,
                             AdderLayout *layout_out = nullptr,
                             UncomputeMode mode = UncomputeMode::Full,
                             bool with_barriers = true);

/** Number of propagate-tree ancilla used by an n-bit adder. */
int draperTreeSize(int n);

} // namespace gen
} // namespace qmh

#endif // QMH_GEN_DRAPER_HH

/**
 * @file
 * Classical reversible-logic simulator.
 *
 * The Draper adder and the modular-exponentiation building blocks use
 * only X, CNOT, SWAP and Toffoli — all permutations of computational
 * basis states — so their functional correctness can be *proved* on a
 * bit-vector: encode inputs, run the instruction stream, check the
 * output integer. The test suite uses this to verify every generated
 * adder actually adds.
 */

#ifndef QMH_CIRCUIT_REVERSIBLE_HH
#define QMH_CIRCUIT_REVERSIBLE_HH

#include <cstdint>
#include <vector>

#include "program.hh"

namespace qmh {
namespace circuit {

/** Bit-vector state of a classical (basis-state) register. */
class ReversibleState
{
  public:
    explicit ReversibleState(int qubits);

    int qubitCount() const { return static_cast<int>(_bits.size()); }

    bool get(QubitId q) const;
    void set(QubitId q, bool value);

    /**
     * Load an unsigned integer, little-endian, into qubits
     * [offset, offset + width).
     */
    void loadInteger(std::uint64_t value, int offset, int width);

    /** Read an unsigned integer from qubits [offset, offset + width). */
    std::uint64_t readInteger(int offset, int width) const;

    /** Apply one classical gate. Panics on non-classical gates. */
    void apply(const Instruction &inst);

    /**
     * Run a whole program. Returns false (leaving the state at the
     * offending instruction) if a non-classical gate is encountered.
     */
    bool run(const Program &program);

  private:
    std::vector<bool> _bits;
};

} // namespace circuit
} // namespace qmh

#endif // QMH_CIRCUIT_REVERSIBLE_HH

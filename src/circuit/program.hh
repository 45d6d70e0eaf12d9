/**
 * @file
 * A logical quantum program: a named, ordered instruction sequence over
 * a fixed set of logical qubits, with gate-count statistics.
 */

#ifndef QMH_CIRCUIT_PROGRAM_HH
#define QMH_CIRCUIT_PROGRAM_HH

#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "instruction.hh"

namespace qmh {
namespace circuit {

/** An ordered logical gate sequence. */
class Program
{
  public:
    Program() = default;

    /** @param name program label @param qubits number of logical qubits */
    Program(std::string name, int qubits);

    const std::string &name() const { return _name; }

    int qubitCount() const { return _qubits; }

    /** Grow the qubit register; existing ids stay valid. */
    QubitId addQubit();

    /** Append an instruction (operands validated against the register). */
    void append(Instruction inst);

    /** Convenience emitters. */
    void x(QubitId a) { append(Instruction::makeOne(GateKind::X, a)); }
    void z(QubitId a) { append(Instruction::makeOne(GateKind::Z, a)); }
    void h(QubitId a) { append(Instruction::makeOne(GateKind::H, a)); }
    void s(QubitId a) { append(Instruction::makeOne(GateKind::S, a)); }
    void t(QubitId a) { append(Instruction::makeOne(GateKind::T, a)); }
    void measure(QubitId a)
    {
        append(Instruction::makeOne(GateKind::Measure, a));
    }
    void
    cnot(QubitId control, QubitId target)
    {
        append(Instruction::makeTwo(GateKind::Cnot, control, target));
    }
    void
    cphase(std::int32_t k, QubitId control, QubitId target)
    {
        append(Instruction::makeTwo(GateKind::Cphase, control, target, k));
    }
    void
    swapq(QubitId a, QubitId b)
    {
        append(Instruction::makeTwo(GateKind::Swap, a, b));
    }
    void
    toffoli(QubitId c0, QubitId c1, QubitId target)
    {
        append(Instruction::makeThree(GateKind::Toffoli, c0, c1, target));
    }
    /** Close the current logical round (scheduling fence). */
    void barrier() { append(Instruction::makeBarrier()); }

    const std::vector<Instruction> &instructions() const { return _insts; }
    std::size_t size() const { return _insts.size(); }
    bool empty() const { return _insts.empty(); }
    const Instruction &operator[](std::size_t i) const { return _insts[i]; }

    /** Number of gates of one kind. */
    std::uint64_t gateCount(GateKind kind) const;

    /** Gates by kind, for reporting. */
    std::map<GateKind, std::uint64_t> gateHistogram() const;

    /** True when every gate is classical reversible logic. */
    bool isClassical() const;

    /**
     * Concatenate another program over the same register width
     * (sequential composition).
     */
    void concat(const Program &other);

  private:
    std::string _name = "program";
    int _qubits = 0;
    std::vector<Instruction> _insts;
};

} // namespace circuit
} // namespace qmh

#endif // QMH_CIRCUIT_PROGRAM_HH

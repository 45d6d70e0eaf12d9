#include "program.hh"

#include "common/logging.hh"

namespace qmh {
namespace circuit {

Program::Program(std::string name, int qubits)
    : _name(std::move(name)), _qubits(qubits)
{
    if (qubits < 0)
        qmh_fatal("Program '", _name, "': negative qubit count");
}

void
Program::append(Instruction inst)
{
    for (const auto &q : inst.operands()) {
        if (!q.isValid() || static_cast<int>(q.value()) >= _qubits)
            qmh_panic("Program '", _name, "': instruction '",
                      inst.toString(), "' references qubit outside the ",
                      _qubits, "-qubit register");
    }
    _insts.push_back(inst);
}

std::uint64_t
Program::gateCount(GateKind kind) const
{
    std::uint64_t count = 0;
    for (const auto &inst : _insts)
        count += inst.kind == kind ? 1 : 0;
    return count;
}

std::map<GateKind, std::uint64_t>
Program::gateHistogram() const
{
    std::map<GateKind, std::uint64_t> hist;
    for (const auto &inst : _insts)
        ++hist[inst.kind];
    return hist;
}

void
Program::concat(const Program &other)
{
    if (other._qubits > _qubits)
        qmh_fatal("Program::concat: '", other._name, "' uses ",
                  other._qubits, " qubits but '", _name, "' has only ",
                  _qubits);
    _insts.insert(_insts.end(), other._insts.begin(), other._insts.end());
}

} // namespace circuit
} // namespace qmh

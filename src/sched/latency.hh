/**
 * @file
 * Logical gate latencies in abstract gate-steps.
 *
 * One gate-step is the time of a transversal two-qubit logical gate
 * followed by its error correction (ecc::Code::gateStepTime). The
 * fault-tolerant Toffoli costs fifteen such steps (paper Section 5.1);
 * the physical duration of a step depends on the code and the
 * concatenation level, so schedules are computed in steps and scaled
 * into seconds afterwards.
 */

#ifndef QMH_SCHED_LATENCY_HH
#define QMH_SCHED_LATENCY_HH

#include <cstdint>

#include "circuit/instruction.hh"

namespace qmh {
namespace sched {

/** Per-gate-kind latencies in gate-steps. */
struct LatencyModel
{
    std::uint32_t single = 1;   ///< X/Z/H/S/T/measure
    std::uint32_t cnot = 1;     ///< CNOT
    std::uint32_t cphase = 2;   ///< controlled rotation (QFT)
    std::uint32_t swap = 3;     ///< three CNOTs
    std::uint32_t toffoli = 15; ///< paper: fifteen two-qubit gate steps

    /** Latency of an instruction in gate-steps. */
    std::uint32_t
    steps(circuit::GateKind kind) const
    {
        using circuit::GateKind;
        switch (kind) {
          case GateKind::Cnot:    return cnot;
          case GateKind::Cphase:  return cphase;
          case GateKind::Swap:    return swap;
          case GateKind::Toffoli: return toffoli;
          case GateKind::Barrier: return 0;
          default:                return single;
        }
    }

    bool operator==(const LatencyModel &) const = default;
};

} // namespace sched
} // namespace qmh

#endif // QMH_SCHED_LATENCY_HH

/**
 * @file
 * Random circuit generators for property-based testing and synthetic
 * workloads: random reversible (classical) circuits whose semantics the
 * bit-vector simulator can check, and random mixed circuits for
 * scheduler/cache stress.
 */

#ifndef QMH_GEN_RANDOM_CIRCUIT_HH
#define QMH_GEN_RANDOM_CIRCUIT_HH

#include "circuit/program.hh"
#include "common/random.hh"

namespace qmh {
namespace gen {

/**
 * A random classical reversible circuit (X/CNOT/SWAP/Toffoli) over
 * @p qubits qubits with @p gates gates.
 */
// qmh-lint: allow(test-only-api): the random input of RandomCircuit.SelfInverseRoundTrip, the property test of circuit::ReversibleState
circuit::Program randomReversible(int qubits, int gates, Random &rng);

/**
 * A random mixed logical circuit (adds H/T/CPhase to the reversible
 * set) for scheduler and cache stress tests.
 */
circuit::Program randomMixed(int qubits, int gates, Random &rng);

} // namespace gen
} // namespace qmh

#endif // QMH_GEN_RANDOM_CIRCUIT_HH

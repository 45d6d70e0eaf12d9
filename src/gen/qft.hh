/**
 * @file
 * Quantum Fourier Transform generator (paper Section 6.1): n Hadamards,
 * n(n-1)/2 controlled phase rotations with all-to-all qubit pairing,
 * and an optional final bit-reversal swap network. The QFT is the
 * paper's communication-heavy, computation-light stress application.
 */

#ifndef QMH_GEN_QFT_HH
#define QMH_GEN_QFT_HH

#include "circuit/program.hh"

namespace qmh {
namespace gen {

/**
 * Build the n-qubit QFT.
 *
 * @param n register width
 * @param with_swaps append the bit-reversal swap network
 */
circuit::Program qft(int n, bool with_swaps = false);

} // namespace gen
} // namespace qmh

#endif // QMH_GEN_QFT_HH

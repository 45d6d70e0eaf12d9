#include "qft.hh"

#include <string>

#include "common/logging.hh"

namespace qmh {
namespace gen {

using circuit::Program;
using circuit::QubitId;

circuit::Program
qft(int n, bool with_swaps)
{
    if (n < 1)
        qmh_fatal("qft: register width must be >= 1, got ", n);

    Program prog("qft-" + std::to_string(n), n);
    auto q = [](int i) {
        return QubitId(static_cast<QubitId::rep_type>(i));
    };

    // Standard big-endian QFT: qubit i gets H, then controlled-R_k
    // rotations from every lower-significance qubit.
    for (int i = n - 1; i >= 0; --i) {
        prog.h(q(i));
        for (int j = i - 1; j >= 0; --j)
            prog.cphase(i - j + 1, q(j), q(i));
    }

    if (with_swaps) {
        for (int i = 0; i < n / 2; ++i)
            prog.swapq(q(i), q(n - 1 - i));
    }

    return prog;
}

} // namespace gen
} // namespace qmh

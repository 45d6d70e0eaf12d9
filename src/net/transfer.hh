/**
 * @file
 * Code-transfer network (paper Section 4.2, Table 3): teleports a
 * logical qubit from one (code, level) encoding into another without
 * decoding. A correlated ancilla pair spanning the two encodings is
 * prepared via a multi-qubit cat state and verified; the data interacts
 * with the equivalently-encoded half through a transversal CNOT and is
 * measured; the destination half absorbs the state and is error
 * corrected.
 *
 * Cost model: the source side (cat-state preparation, verification,
 * transversal Bell measurement) costs src_ec_equivalents error-
 * correction times of the source encoding; the destination side
 * (correction plus EC) costs dst_ec_equivalents of the destination
 * encoding. The two constants are calibrated once against the paper's
 * Table 3 and reproduce 13 of its 14 entries within its one-digit
 * rounding (see EXPERIMENTS.md).
 */

#ifndef QMH_NET_TRANSFER_HH
#define QMH_NET_TRANSFER_HH

#include <vector>

#include "ecc/code.hh"
#include "iontrap/params.hh"

namespace qmh {
namespace net {

/** One endpoint of a transfer: a code at a concatenation level. */
struct Encoding
{
    ecc::CodeKind code;
    ecc::Level level;

    bool operator==(const Encoding &) const = default;
};

/** Short label like "7-L2" for tables. */
std::string encodingLabel(const Encoding &enc);

/** Latency model for the transfer network. */
class TransferNetwork
{
  public:
    explicit TransferNetwork(const iontrap::Params &params);

    /**
     * Seconds to move one logical qubit from @p src encoding to
     * @p dst encoding. Zero when the encodings are identical.
     */
    double transferTime(const Encoding &src, const Encoding &dst) const;

    /**
     * Seconds one channel is held moving a logical qubit of @p code
     * from level 2 (memory) to level 1 (cache): transferTime() times
     * the code's channel cost. The trace engine and the hierarchy
     * model both charge this per transfer.
     */
    double level2To1ChannelTime(const ecc::Code &code) const;

    /** All pairwise latencies over @p encodings (Table 3). */
    std::vector<std::vector<double>>
    latencyMatrix(const std::vector<Encoding> &encodings) const;

    /** Source-side cost in EC times of the source encoding. */
    static constexpr double src_ec_equivalents = 4.3;

    /** Destination-side cost in EC times of the destination encoding. */
    static constexpr double dst_ec_equivalents = 2.0;

  private:
    iontrap::Params _params;
};

} // namespace net
} // namespace qmh

#endif // QMH_NET_TRANSFER_HH

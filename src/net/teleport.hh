/**
 * @file
 * Teleportation-based interconnect model (paper Section 2 and 6).
 *
 * Logical qubits move by teleportation: an EPR pair is generated and
 * purified between source and destination islands, the data interacts
 * transversally with the local half, both are measured, and the
 * destination applies a classically-controlled correction followed by
 * an error correction. The post-arrival EC dominates, which is why "a
 * single communication step does not take longer than the computation
 * of a single gate" (paper Section 6) and why quantum computers do not
 * hit a conventional memory wall.
 */

#ifndef QMH_NET_TELEPORT_HH
#define QMH_NET_TELEPORT_HH

#include "ecc/code.hh"
#include "iontrap/params.hh"

namespace qmh {
namespace net {

/** Cost model for logical teleportation. */
class TeleportModel
{
  public:
    TeleportModel(const ecc::Code &code, ecc::Level level,
                  const iontrap::Params &params);

    /**
     * Wall-clock time to teleport one logical qubit through one
     * channel, including the post-arrival error correction.
     */
    double teleportTime() const;

    /**
     * The pre-EC part only (EPR generation, purification, ballistic
     * moves of the physical data ions, Bell measurement). Bacon-Shor
     * pays more here than Steane: only data ions teleport, and
     * [[9,1,3]] has more of them.
     */
    double transportTime() const;

    /** Qubits per second through one channel. */
    double channelRate() const;

    /** EPR generation + purification rounds, in fundamental cycles. */
    static constexpr int epr_setup_cycles = 24;

    /** Junction traversal cycles charged per physical data ion. */
    static constexpr double cycles_per_data_ion = 1.0;

  private:
    ecc::Code _code;
    ecc::Level _level;
    iontrap::Params _params;
};

} // namespace net
} // namespace qmh

#endif // QMH_NET_TELEPORT_HH

/**
 * @file
 * Mesh interconnect utilities: XY routing distance and the
 * near-optimal pipelined all-to-all personalized exchange the paper
 * adopts for the QFT (Yang & Wang, IEEE ToC 50(10), all-port meshes).
 */

#ifndef QMH_NET_MESH_HH
#define QMH_NET_MESH_HH

#include <cstdint>

namespace qmh {
namespace net {

/** Square mesh of nodes with all-port teleportation routing. */
class Mesh
{
  public:
    /** @param side nodes per edge (side*side nodes total) */
    explicit Mesh(int side);

    int nodes() const { return _side * _side; }

    /** XY-routing hop count between node indices (row-major). */
    int hops(int from, int to) const;

    /** Bisection width in links (all-port: 2 directions per link). */
    double bisectionLinks() const;

    /**
     * Time for all-to-all personalized communication where each of
     * the @p items qubits must visit every other, moved at
     * @p channel_rate qubits/s per link. Near-optimal pipelined
     * schedule: total traffic items*(items-1) qubit-transfers spread
     * over the bisection.
     */
    double allToAllTime(std::uint64_t items, double channel_rate) const;

  private:
    int _side;
};

} // namespace net
} // namespace qmh

#endif // QMH_NET_MESH_HH

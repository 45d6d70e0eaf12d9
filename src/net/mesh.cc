#include "mesh.hh"

#include <cmath>
#include <cstdlib>

#include "common/logging.hh"

namespace qmh {
namespace net {

Mesh::Mesh(int side) : _side(side)
{
    if (side < 1)
        qmh_fatal("Mesh: side must be >= 1, got ", side);
}

int
Mesh::hops(int from, int to) const
{
    if (from < 0 || from >= nodes() || to < 0 || to >= nodes())
        qmh_panic("Mesh::hops: node index out of range");
    const int fx = from % _side;
    const int fy = from / _side;
    const int tx = to % _side;
    const int ty = to / _side;
    return std::abs(fx - tx) + std::abs(fy - ty);
}

double
Mesh::bisectionLinks() const
{
    return static_cast<double>(_side);
}

double
Mesh::allToAllTime(std::uint64_t items, double channel_rate) const
{
    if (channel_rate <= 0.0)
        qmh_panic("Mesh::allToAllTime: rate must be positive");
    if (items < 2)
        return 0.0;
    // Every ordered pair exchanges one qubit; on average half the
    // traffic crosses the bisection, served by bisectionLinks() links
    // in each direction.
    const double transfers =
        static_cast<double>(items) * static_cast<double>(items - 1);
    const double crossing = transfers / 2.0;
    return crossing / (2.0 * bisectionLinks() * channel_rate);
}

} // namespace net
} // namespace qmh

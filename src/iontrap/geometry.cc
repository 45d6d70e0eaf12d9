#include "geometry.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace qmh {
namespace iontrap {

int
manhattan(GridCoord a, GridCoord b)
{
    return std::abs(a.x - b.x) + std::abs(a.y - b.y);
}

TrapGrid::TrapGrid(int width, int height, const Params &params)
    : _width(width), _height(height), _params(params)
{
    if (width <= 0 || height <= 0)
        qmh_fatal("TrapGrid dimensions must be positive: ", width, "x",
                  height);
}

bool
TrapGrid::contains(GridCoord c) const
{
    return c.x >= 0 && c.x < _width && c.y >= 0 && c.y < _height;
}

int
TrapGrid::moveLatencyCycles(GridCoord from, GridCoord to) const
{
    if (!contains(from) || !contains(to))
        qmh_panic("moveLatencyCycles: coordinate outside grid");
    const int hops = manhattan(from, to);
    if (hops == 0)
        return 0;
    return _params.opCycles(PhysOp::Split) +
           hops * _params.opCycles(PhysOp::Move) +
           _params.opCycles(PhysOp::Cooling);
}

} // namespace iontrap
} // namespace qmh

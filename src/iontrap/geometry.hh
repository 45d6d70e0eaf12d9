/**
 * @file
 * Abstraction of the planar ion-trap layout (paper Fig. 1(b)): a grid
 * of trapping regions joined by shared crossing junctions. Provides the
 * movement-latency primitive the tile and interconnect models are built
 * on.
 */

#ifndef QMH_IONTRAP_GEOMETRY_HH
#define QMH_IONTRAP_GEOMETRY_HH

#include "params.hh"

namespace qmh {
namespace iontrap {

/** Integer coordinate of a trapping region in the grid. */
struct GridCoord
{
    int x = 0;
    int y = 0;

    bool operator==(const GridCoord &) const = default;
};

/** Manhattan distance in trapping regions. */
int manhattan(GridCoord a, GridCoord b);

/**
 * A rectangular field of trapping regions. The grid is purely
 * geometric: occupancy/routing policy lives with the callers.
 */
class TrapGrid
{
  public:
    TrapGrid(int width, int height, const Params &params);

    /** True if @p c lies inside the grid. */
    bool contains(GridCoord c) const;

    /**
     * Latency, in fundamental cycles, to ballistically shuttle an ion
     * between two regions: one split, one move per region traversed,
     * and one cooling step at the destination.
     */
    int moveLatencyCycles(GridCoord from, GridCoord to) const;

  private:
    int _width;
    int _height;
    Params _params;
};

} // namespace iontrap
} // namespace qmh

#endif // QMH_IONTRAP_GEOMETRY_HH

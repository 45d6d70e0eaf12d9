/**
 * @file
 * Parameter-sweep options and the seeding primitives every sweep
 * surface shares.
 *
 * Experiment points are embarrassingly parallel: every point owns its
 * EventQueue (there is no global singleton by design), so a grid fans
 * across cores with no shared mutable state. api::Session owns the
 * worker threads, runs jobs on them and stores each row at its index,
 * so the output is independent of point completion order.
 *
 * Determinism contract: each point receives its own qmh::Random seeded
 * from (base_seed, index) via pointSeed(), or from (base_seed, spec
 * string) via opt::specSeed(), which folds through pointSeed(). A
 * table is bit-identical whether the sweep runs on 1 thread or N
 * threads.
 */

#ifndef QMH_SWEEP_SWEEP_HH
#define QMH_SWEEP_SWEEP_HH

#include <cstddef>
#include <cstdint>

#include "sweep/emit.hh"

namespace qmh {
namespace sweep {

/** Sweep execution options. */
struct SweepOptions
{
    /** Worker threads; 0 means one per hardware thread. */
    unsigned threads = 0;
    /** Base seed; every grid point derives its own stream from it. */
    std::uint64_t base_seed = 0x243F6A8885A308D3ULL;
};

/**
 * Deterministic per-point seed: a splitmix64-style mix of the base
 * seed and the point index. Depends only on its arguments, never on
 * scheduling.
 */
std::uint64_t pointSeed(std::uint64_t base_seed, std::size_t index);

} // namespace sweep
} // namespace qmh

#endif // QMH_SWEEP_SWEEP_HH

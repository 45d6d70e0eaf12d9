/**
 * @file
 * Deterministic pseudo-random number generation.
 *
 * A self-contained xoshiro256** implementation: the simulator must give
 * bit-identical results across standard libraries, which std::mt19937
 * distributions do not guarantee. All stochastic components (error
 * injection, random circuits, traffic generators) take a Random by
 * reference so tests control the seed.
 */

#ifndef QMH_COMMON_RANDOM_HH
#define QMH_COMMON_RANDOM_HH

#include <cstdint>

namespace qmh {

/** xoshiro256** generator with splitmix64 seeding. */
class Random
{
  public:
    /** Construct from a 64-bit seed; equal seeds give equal streams. */
    explicit Random(std::uint64_t seed = 0x9E3779B97F4A7C15ULL);

    /** Next raw 64-bit value. */
    std::uint64_t next();

    /** Uniform double in [0, 1). */
    double uniform();

    /** Uniform integer in [0, bound). bound must be nonzero. */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformRange(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial: true with probability p. */
    bool bernoulli(double p);

  private:
    std::uint64_t s[4];
};

} // namespace qmh

#endif // QMH_COMMON_RANDOM_HH

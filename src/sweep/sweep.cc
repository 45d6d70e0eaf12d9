#include "sweep.hh"

namespace qmh {
namespace sweep {

std::uint64_t
pointSeed(std::uint64_t base_seed, std::size_t index)
{
    // splitmix64 finalizer over (base ^ golden-ratio-scaled index):
    // adjacent indices land in unrelated regions of the seed space, so
    // per-point Random streams do not overlap in practice.
    std::uint64_t z = base_seed +
                      (static_cast<std::uint64_t>(index) + 1) *
                          0x9E3779B97F4A7C15ULL;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

} // namespace sweep
} // namespace qmh

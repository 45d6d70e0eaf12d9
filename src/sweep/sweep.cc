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

std::uint64_t
keySeed(std::uint64_t base_seed, std::string_view key)
{
    // FNV-1a 64 over the key, folded through pointSeed. The constants
    // are load-bearing: opt::ResultCache files persist seeds derived
    // here, so changing the hash invalidates every existing cache.
    std::uint64_t hash = 0xCBF29CE484222325ULL;
    for (const char c : key) {
        hash ^= static_cast<unsigned char>(c);
        hash *= 0x100000001B3ULL;
    }
    return pointSeed(base_seed, hash);
}

} // namespace sweep
} // namespace qmh

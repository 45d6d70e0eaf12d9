#include "random.hh"

#include "logging.hh"

namespace qmh {

namespace {

std::uint64_t
splitmix64(std::uint64_t &x)
{
    x += 0x9E3779B97F4A7C15ULL;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ULL;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBULL;
    return z ^ (z >> 31);
}

std::uint64_t
rotl(std::uint64_t x, int k)
{
    return (x << k) | (x >> (64 - k));
}

} // namespace

Random::Random(std::uint64_t seed)
{
    std::uint64_t sm = seed;
    for (auto &word : s)
        word = splitmix64(sm);
}

std::uint64_t
Random::next()
{
    const std::uint64_t result = rotl(s[1] * 5, 7) * 9;
    const std::uint64_t t = s[1] << 17;

    s[2] ^= s[0];
    s[3] ^= s[1];
    s[1] ^= s[2];
    s[0] ^= s[3];
    s[2] ^= t;
    s[3] = rotl(s[3], 45);

    return result;
}

double
Random::uniform()
{
    // 53 high bits give a uniform double in [0, 1).
    return static_cast<double>(next() >> 11) * 0x1.0p-53;
}

std::uint64_t
Random::uniformInt(std::uint64_t bound)
{
    if (bound == 0)
        qmh_panic("uniformInt bound must be nonzero");
    // Rejection sampling to avoid modulo bias.
    const std::uint64_t limit = ~std::uint64_t(0) - ~std::uint64_t(0) % bound;
    std::uint64_t v;
    do {
        v = next();
    } while (v >= limit);
    return v % bound;
}

std::int64_t
Random::uniformRange(std::int64_t lo, std::int64_t hi)
{
    if (lo > hi)
        qmh_panic("uniformRange: lo > hi");
    // hi - lo in signed arithmetic overflows (UB) whenever the span
    // exceeds INT64_MAX, so compute it on the unsigned wrap-around
    // representatives instead.
    const std::uint64_t span = static_cast<std::uint64_t>(hi) -
                               static_cast<std::uint64_t>(lo);
    if (span == ~std::uint64_t(0)) {
        // Full 64-bit range: span + 1 would wrap to 0 and uniformInt
        // would reject it, yet every 64-bit pattern is a valid sample.
        return static_cast<std::int64_t>(next());
    }
    const std::uint64_t offset = uniformInt(span + 1);
    return static_cast<std::int64_t>(static_cast<std::uint64_t>(lo) +
                                     offset);
}

bool
Random::bernoulli(double p)
{
    if (p <= 0.0)
        return false;
    if (p >= 1.0)
        return true;
    return uniform() < p;
}

} // namespace qmh

#include "common/rng.hh"

#include <cmath>
#include <utility>

namespace dcmbqc
{

namespace
{

std::uint64_t
splitMix64(std::uint64_t &x)
{
    x += 0x9e3779b97f4a7c15ull;
    std::uint64_t z = x;
    z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ull;
    z = (z ^ (z >> 27)) * 0x94d049bb133111ebull;
    return z ^ (z >> 31);
}

} // namespace

Rng::Rng(std::uint64_t seed)
{
    std::uint64_t s = seed;
    for (auto &word : state_)
        word = splitMix64(s);
}

std::uint64_t
Rng::uniformInt(std::uint64_t bound)
{
    if (bound == 0)
        return 0;
    // Rejection sampling on the top of the range to remove modulo
    // bias: reject draws below 2^64 mod bound. That threshold is
    // below bound, so a draw >= bound is kept without computing it.
    for (;;) {
        const std::uint64_t r = next();
        if (r >= bound || r >= (0 - bound) % bound)
            return r % bound;
    }
}

std::int64_t
Rng::uniformRange(std::int64_t lo, std::int64_t hi)
{
    const std::uint64_t span =
        static_cast<std::uint64_t>(hi - lo) + 1;
    return lo + static_cast<std::int64_t>(uniformInt(span));
}

double
Rng::normal()
{
    if (haveSpareNormal) {
        haveSpareNormal = false;
        return spareNormal;
    }
    double u, v, s;
    do {
        u = 2.0 * uniform() - 1.0;
        v = 2.0 * uniform() - 1.0;
        s = u * u + v * v;
    } while (s >= 1.0 || s == 0.0);
    const double factor = std::sqrt(-2.0 * std::log(s) / s);
    spareNormal = v * factor;
    haveSpareNormal = true;
    return u * factor;
}

} // namespace dcmbqc

/**
 * @file
 * Deterministic pseudo-random number generation. All stochastic
 * components of the library (QAOA instance generation, simulated
 * annealing, Monte-Carlo loss sampling, measurement outcomes) draw
 * from this generator so experiments are exactly reproducible from a
 * seed.
 */

#ifndef DCMBQC_COMMON_RNG_HH
#define DCMBQC_COMMON_RNG_HH

#include <cstdint>
#include <utility>

namespace dcmbqc
{

/**
 * Xoshiro256** PRNG seeded through SplitMix64. Small, fast, and good
 * enough statistical quality for simulation workloads; notably *not*
 * cryptographic.
 */
class Rng
{
  public:
    /** Construct from a 64-bit seed (expanded via SplitMix64). */
    explicit Rng(std::uint64_t seed = 0x9e3779b97f4a7c15ull);

    /** Next raw 64-bit output. */
    std::uint64_t
    next()
    {
        const std::uint64_t result = rotl(state_[1] * 5, 7) * 9;
        const std::uint64_t t = state_[1] << 17;

        state_[2] ^= state_[0];
        state_[3] ^= state_[1];
        state_[1] ^= state_[2];
        state_[0] ^= state_[3];
        state_[2] ^= t;
        state_[3] = rotl(state_[3], 45);

        return result;
    }

    /** Uniform double in [0, 1). */
    double
    uniform()
    {
        // 53 high bits -> double in [0, 1).
        return (next() >> 11) * 0x1.0p-53;
    }

    /** Uniform integer in [0, bound) with rejection to avoid bias. */
    std::uint64_t uniformInt(std::uint64_t bound);

    /** Uniform integer in [lo, hi] inclusive. */
    std::int64_t uniformRange(std::int64_t lo, std::int64_t hi);

    /** Bernoulli trial with success probability p. */
    bool bernoulli(double p) { return uniform() < p; }

    /** Standard normal via Box-Muller. */
    double normal();

    /** Fisher-Yates shuffle of a contiguous container. */
    template <typename Container>
    void
    shuffle(Container &c)
    {
        for (std::size_t i = c.size(); i > 1; --i) {
            std::size_t j = uniformInt(i);
            std::swap(c[i - 1], c[j]);
        }
    }

    /**
     * The four xoshiro256** state words, for kernels that advance
     * several streams in lockstep (exec/loss_kernels).
     */
    const std::uint64_t *state() const { return state_; }

  private:
    static std::uint64_t
    rotl(std::uint64_t x, int k)
    {
        return (x << k) | (x >> (64 - k));
    }

    std::uint64_t state_[4];
    bool haveSpareNormal = false;
    double spareNormal = 0.0;
};

} // namespace dcmbqc

#endif // DCMBQC_COMMON_RNG_HH

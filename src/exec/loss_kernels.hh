/**
 * @file
 * Loss-draw kernels behind the `mc-loss` backend. A shot draws one
 * loss trial per photon and then one per fusion, in that order, from
 * its own stream `Rng(shotSeed(seed, shot))`. Each trial compares the
 * top 53 bits x of the stream's next output with an integer
 * threshold: `Rng::bernoulli(p)` is x * 2^-53 < p with both sides
 * exact, so it equals x < ceil(p * 2^53) (`drawThreshold`).
 *
 * The kernels count a shot's lost draws and exist twice: a portable
 * loop over one shot at a time, and an AVX2 kernel advancing sixteen
 * shots' xoshiro256** streams in lockstep as four vectors of four.
 * Both draw the same values in the same order, so their counts are
 * identical, which tests/test_sim_kernels.cc asserts.
 */

#ifndef DCMBQC_EXEC_LOSS_KERNELS_HH
#define DCMBQC_EXEC_LOSS_KERNELS_HH

#include <cstddef>
#include <cstdint>

namespace dcmbqc
{
namespace loss
{

/** Shots one kernel call draws together (four AVX2 vectors of 4). */
constexpr int kBlockShots = 16;

/**
 * The threshold t with `Rng::bernoulli(p)` == ((next() >> 11) < t):
 * 0 for p <= 0 or NaN, 2^53 for p >= 1, else ceil(ldexp(p, 53)).
 */
std::uint64_t drawThreshold(double p);

/**
 * Count the lost draws of shots first_shot .. first_shot + shots - 1
 * into lost[0 .. shots): draw d of a shot is lost when the top 53
 * bits of its stream's d-th output fall below thresholds[d].
 */
void countLostPortable(const std::uint64_t *thresholds,
                       std::size_t draws, std::int64_t seed,
                       int first_shot, int shots, std::int64_t *lost);

#if defined(__x86_64__) || defined(_M_X64)
/**
 * AVX2 variant of countLostPortable for one full block of
 * kBlockShots shots. Call only when sv::cpuHasAvx2().
 */
void countLostAvx2(const std::uint64_t *thresholds, std::size_t draws,
                   std::int64_t seed, int first_shot,
                   std::int64_t lost[kBlockShots]);
#endif

/**
 * countLostPortable for shots <= kBlockShots, on the AVX2 kernel when
 * the block is full and the CPU has AVX2.
 */
void countLost(const std::uint64_t *thresholds, std::size_t draws,
               std::int64_t seed, int first_shot, int shots,
               std::int64_t *lost);

} // namespace loss
} // namespace dcmbqc

#endif // DCMBQC_EXEC_LOSS_KERNELS_HH

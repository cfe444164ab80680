#include "exec/loss_kernels.hh"

#include <cmath>

#include "common/rng.hh"
#include "exec/backend.hh"
#include "sim/sv_kernels.hh"

#if defined(__x86_64__) || defined(_M_X64)
#include <immintrin.h>
#endif

namespace dcmbqc
{
namespace loss
{

std::uint64_t
drawThreshold(double p)
{
    // x * 2^-53 and ldexp(p, 53) are exact for any x < 2^53 and any
    // p in (0, 1), subnormals included, so x * 2^-53 < p holds iff
    // the integer x lies below the real p * 2^53, i.e. below its
    // ceiling.
    if (!(p > 0.0))
        return 0;
    if (p >= 1.0)
        return std::uint64_t(1) << 53;
    return static_cast<std::uint64_t>(std::ceil(std::ldexp(p, 53)));
}

void
countLostPortable(const std::uint64_t *thresholds, std::size_t draws,
                  std::int64_t seed, int first_shot, int shots,
                  std::int64_t *lost)
{
    for (int i = 0; i < shots; ++i) {
        Rng rng(shotSeed(seed, first_shot + i));
        std::int64_t lost_here = 0;
        for (std::size_t d = 0; d < draws; ++d)
            lost_here += (rng.next() >> 11) < thresholds[d];
        lost[i] = lost_here;
    }
}

#if defined(__x86_64__) || defined(_M_X64)

namespace
{

__attribute__((target("avx2"))) inline __m256i
loadLanes(const std::uint64_t *words)
{
    return _mm256_load_si256(reinterpret_cast<const __m256i *>(words));
}

template <int K>
__attribute__((target("avx2"))) inline __m256i
rotl(__m256i x)
{
    return _mm256_or_si256(_mm256_slli_epi64(x, K),
                           _mm256_srli_epi64(x, 64 - K));
}

/**
 * Rng::next on four streams at once: the same xoshiro256** step,
 * with the multiplies by 5 and 9 written as shift-add (AVX2 has no
 * 64-bit multiply).
 */
__attribute__((target("avx2"))) inline __m256i
nextOutput(__m256i &s0, __m256i &s1, __m256i &s2, __m256i &s3)
{
    const __m256i times5 = _mm256_add_epi64(_mm256_slli_epi64(s1, 2), s1);
    const __m256i rotated = rotl<7>(times5);
    const __m256i result =
        _mm256_add_epi64(_mm256_slli_epi64(rotated, 3), rotated);
    const __m256i t = _mm256_slli_epi64(s1, 17);

    s2 = _mm256_xor_si256(s2, s0);
    s3 = _mm256_xor_si256(s3, s1);
    s1 = _mm256_xor_si256(s1, s2);
    s0 = _mm256_xor_si256(s0, s3);
    s2 = _mm256_xor_si256(s2, t);
    s3 = rotl<45>(s3);

    return result;
}

} // namespace

__attribute__((target("avx2"))) void
countLostAvx2(const std::uint64_t *thresholds, std::size_t draws,
              std::int64_t seed, int first_shot,
              std::int64_t lost[kBlockShots])
{
    constexpr int kVectors = kBlockShots / 4;

    // Seed each lane exactly as the portable kernel seeds its shot,
    // then transpose: word w of lanes 4v .. 4v + 3 forms one vector.
    alignas(32) std::uint64_t words[4][kBlockShots];
    for (int lane = 0; lane < kBlockShots; ++lane) {
        const Rng rng(shotSeed(seed, first_shot + lane));
        for (int w = 0; w < 4; ++w)
            words[w][lane] = rng.state()[w];
    }
    __m256i s0[kVectors], s1[kVectors], s2[kVectors], s3[kVectors];
    __m256i count[kVectors];
    for (int v = 0; v < kVectors; ++v) {
        s0[v] = loadLanes(&words[0][4 * v]);
        s1[v] = loadLanes(&words[1][4 * v]);
        s2[v] = loadLanes(&words[2][4 * v]);
        s3[v] = loadLanes(&words[3][4 * v]);
        count[v] = _mm256_setzero_si256();
    }

    for (std::size_t d = 0; d < draws; ++d) {
        const __m256i threshold =
            _mm256_set1_epi64x(static_cast<long long>(thresholds[d]));
        for (int v = 0; v < kVectors; ++v) {
            const __m256i x = _mm256_srli_epi64(
                nextOutput(s0[v], s1[v], s2[v], s3[v]), 11);
            // Signed compare, exact here: both sides are at most
            // 2^53. A lost draw reads -1, so subtracting counts it.
            count[v] = _mm256_sub_epi64(
                count[v], _mm256_cmpgt_epi64(threshold, x));
        }
    }

    for (int v = 0; v < kVectors; ++v)
        _mm256_storeu_si256(reinterpret_cast<__m256i *>(lost + 4 * v),
                            count[v]);
}

#endif // x86_64

void
countLost(const std::uint64_t *thresholds, std::size_t draws,
          std::int64_t seed, int first_shot, int shots,
          std::int64_t *lost)
{
#if defined(__x86_64__) || defined(_M_X64)
    if (shots == kBlockShots && sv::cpuHasAvx2()) {
        countLostAvx2(thresholds, draws, seed, first_shot, lost);
        return;
    }
#endif
    countLostPortable(thresholds, draws, seed, first_shot, shots, lost);
}

} // namespace loss
} // namespace dcmbqc

#include "sim/sv_kernels.hh"

#if defined(__x86_64__) || defined(_M_X64)

#include <immintrin.h>

namespace dcmbqc
{
namespace sv
{

namespace
{

/**
 * Complex multiply of two packed complexes by the broadcast constant
 * (mr, mi): addsub(a * mr, swap(a) * mi) yields
 * (mr*ar - mi*ai, mr*ai + mi*ar) per complex — the identical
 * mul/sub/add sequence the portable kernel performs (no FMA).
 */
__attribute__((target("avx2"))) inline __m256d
cmulConst(__m256d a, __m256d mr, __m256d mi)
{
    const __m256d swapped = _mm256_permute_pd(a, 0x5);
    return _mm256_addsub_pd(_mm256_mul_pd(mr, a),
                            _mm256_mul_pd(mi, swapped));
}

/**
 * Both branches of two index pairs: a0 and a1 hold the pairs' i0 and
 * i1 amplitudes. Stores the projections, then adds their norms to
 * `sums` = {p0, p1}, pair by pair.
 */
__attribute__((target("avx2"))) inline __m128d
sweepTwoPairs(__m256d a0, __m256d a1, const __m256d k[6], double *o0,
              double *o1, __m128d sums)
{
    const __m256d t0 = cmulConst(a0, k[0], k[1]);
    const __m256d v0 = _mm256_add_pd(t0, cmulConst(a1, k[2], k[3]));
    const __m256d v1 = _mm256_add_pd(t0, cmulConst(a1, k[4], k[5]));
    _mm256_storeu_pd(o0, v0);
    _mm256_storeu_pd(o1, v1);
    // {|v0[r]|^2, |v1[r]|^2, |v0[r+1]|^2, |v1[r+1]|^2}, each
    // x*x + y*y.
    const __m256d norms = _mm256_hadd_pd(_mm256_mul_pd(v0, v0),
                                         _mm256_mul_pd(v1, v1));
    sums = _mm_add_pd(sums, _mm256_castpd256_pd128(norms));
    return _mm_add_pd(sums, _mm256_extractf128_pd(norms, 1));
}

} // namespace

__attribute__((target("avx2"))) void
apply1qAvx2(Amp *amps, std::size_t size, int q, const Amp m[4])
{
    const std::size_t stride = static_cast<std::size_t>(1) << q;
    if (stride < 2) {
        // q == 0 interleaves the pair within one vector; the scalar
        // kernel handles it (identical arithmetic either way).
        apply1qPortable(amps, size, q, m);
        return;
    }

    const __m256d m00r = _mm256_set1_pd(m[0].real());
    const __m256d m00i = _mm256_set1_pd(m[0].imag());
    const __m256d m01r = _mm256_set1_pd(m[1].real());
    const __m256d m01i = _mm256_set1_pd(m[1].imag());
    const __m256d m10r = _mm256_set1_pd(m[2].real());
    const __m256d m10i = _mm256_set1_pd(m[2].imag());
    const __m256d m11r = _mm256_set1_pd(m[3].real());
    const __m256d m11i = _mm256_set1_pd(m[3].imag());

    double *d = reinterpret_cast<double *>(amps);
    for (std::size_t base = 0; base < size; base += 2 * stride) {
        for (std::size_t offset = 0; offset < stride; offset += 2) {
            const std::size_t i0 = 2 * (base + offset);
            const std::size_t i1 = i0 + 2 * stride;
            const __m256d a0 = _mm256_loadu_pd(d + i0);
            const __m256d a1 = _mm256_loadu_pd(d + i1);
            const __m256d out0 =
                _mm256_add_pd(cmulConst(a0, m00r, m00i),
                              cmulConst(a1, m01r, m01i));
            const __m256d out1 =
                _mm256_add_pd(cmulConst(a0, m10r, m10i),
                              cmulConst(a1, m11r, m11i));
            _mm256_storeu_pd(d + i0, out0);
            _mm256_storeu_pd(d + i1, out1);
        }
    }
}

__attribute__((target("avx2"))) BranchNorms
measureSweepAvx2(const Amp *amps, std::size_t size, int q,
                 const Amp k[3], Amp *out0, Amp *out1)
{
    if (size < 4)
        return measureSweepPortable(amps, size, q, k, out0, out1);

    const __m256d kv[6] = {
        _mm256_set1_pd(k[0].real()), _mm256_set1_pd(k[0].imag()),
        _mm256_set1_pd(k[1].real()), _mm256_set1_pd(k[1].imag()),
        _mm256_set1_pd(k[2].real()), _mm256_set1_pd(k[2].imag()),
    };
    const double *d = reinterpret_cast<const double *>(amps);
    double *o0 = reinterpret_cast<double *>(out0);
    double *o1 = reinterpret_cast<double *>(out1);
    __m128d sums = _mm_setzero_pd();
    const std::size_t stride = static_cast<std::size_t>(1) << q;
    if (stride < 2) {
        // q == 0: pair r is the vector at 4r, {a[i0], a[i1]}; a lane
        // permute regroups two pairs into their i0 and i1 halves.
        for (std::size_t r = 0; r < size / 2; r += 2) {
            const __m256d x = _mm256_loadu_pd(d + 4 * r);
            const __m256d y = _mm256_loadu_pd(d + 4 * r + 4);
            sums = sweepTwoPairs(_mm256_permute2f128_pd(x, y, 0x20),
                                 _mm256_permute2f128_pd(x, y, 0x31), kv,
                                 o0 + 2 * r, o1 + 2 * r, sums);
        }
    } else {
        std::size_t r = 0;
        for (std::size_t base = 0; base < size; base += 2 * stride) {
            for (std::size_t offset = 0; offset < stride;
                 offset += 2, r += 2) {
                const std::size_t i0 = 2 * (base + offset);
                const std::size_t i1 = i0 + 2 * stride;
                sums = sweepTwoPairs(_mm256_loadu_pd(d + i0),
                                     _mm256_loadu_pd(d + i1), kv,
                                     o0 + 2 * r, o1 + 2 * r, sums);
            }
        }
    }
    double p[2];
    _mm_storeu_pd(p, sums);
    return {p[0], p[1]};
}

} // namespace sv
} // namespace dcmbqc

#endif // x86_64

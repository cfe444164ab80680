#include "sim/sv_kernels.hh"

#include "sim/kernel_config.hh"

namespace dcmbqc
{
namespace sv
{

bool
cpuHasAvx2()
{
#if (defined(__x86_64__) || defined(_M_X64)) && \
    (defined(__GNUC__) || defined(__clang__))
    static const bool supported = __builtin_cpu_supports("avx2");
    return supported;
#else
    return false;
#endif
}

void
apply1qPortable(Amp *amps, std::size_t size, int q, const Amp m[4])
{
    // Work on raw doubles with the exact operation order the AVX2
    // kernel uses: per product (mr*ar - mi*ai, mr*ai + mi*ar), then
    // one componentwise add of the two products. Bit-identical to
    // the AVX2 path by construction (this TU builds with
    // -ffp-contract=off, so no FMA contraction on either side).
    const double m00r = m[0].real(), m00i = m[0].imag();
    const double m01r = m[1].real(), m01i = m[1].imag();
    const double m10r = m[2].real(), m10i = m[2].imag();
    const double m11r = m[3].real(), m11i = m[3].imag();
    double *d = reinterpret_cast<double *>(amps);
    const std::size_t stride = static_cast<std::size_t>(1) << q;
    for (std::size_t base = 0; base < size; base += 2 * stride) {
        for (std::size_t offset = 0; offset < stride; ++offset) {
            const std::size_t i0 = 2 * (base + offset);
            const std::size_t i1 = i0 + 2 * stride;
            const double a0r = d[i0], a0i = d[i0 + 1];
            const double a1r = d[i1], a1i = d[i1 + 1];
            d[i0] = (m00r * a0r - m00i * a0i) +
                (m01r * a1r - m01i * a1i);
            d[i0 + 1] = (m00r * a0i + m00i * a0r) +
                (m01r * a1i + m01i * a1r);
            d[i1] = (m10r * a0r - m10i * a0i) +
                (m11r * a1r - m11i * a1i);
            d[i1 + 1] = (m10r * a0i + m10i * a0r) +
                (m11r * a1i + m11i * a1r);
        }
    }
}

BranchNorms
measureSweepPortable(const Amp *amps, std::size_t size, int q,
                     const Amp k[3], Amp *out0, Amp *out1)
{
    // The AVX2 kernel's operation order: per product
    // (kr*ar - ki*ai, kr*ai + ki*ar), one componentwise add, then
    // x*x + y*y added to each branch's running sum.
    const double k0r = k[0].real(), k0i = k[0].imag();
    const double kpr = k[1].real(), kpi = k[1].imag();
    const double kmr = k[2].real(), kmi = k[2].imag();
    const double *d = reinterpret_cast<const double *>(amps);
    double *o0 = reinterpret_cast<double *>(out0);
    double *o1 = reinterpret_cast<double *>(out1);
    const std::size_t stride = static_cast<std::size_t>(1) << q;
    double p0 = 0.0;
    double p1 = 0.0;
    std::size_t r = 0;
    for (std::size_t base = 0; base < size; base += 2 * stride) {
        for (std::size_t offset = 0; offset < stride; ++offset, ++r) {
            const std::size_t i0 = 2 * (base + offset);
            const std::size_t i1 = i0 + 2 * stride;
            const double a0r = d[i0], a0i = d[i0 + 1];
            const double a1r = d[i1], a1i = d[i1 + 1];
            const double t0r = k0r * a0r - k0i * a0i;
            const double t0i = k0r * a0i + k0i * a0r;
            const double v0r = t0r + (kpr * a1r - kpi * a1i);
            const double v0i = t0i + (kpr * a1i + kpi * a1r);
            const double v1r = t0r + (kmr * a1r - kmi * a1i);
            const double v1i = t0i + (kmr * a1i + kmi * a1r);
            o0[2 * r] = v0r;
            o0[2 * r + 1] = v0i;
            o1[2 * r] = v1r;
            o1[2 * r + 1] = v1i;
            p0 += v0r * v0r + v0i * v0i;
            p1 += v1r * v1r + v1i * v1i;
        }
    }
    return {p0, p1};
}

namespace
{

/** True when the AVX2 kernels should run. */
bool
useAvx2()
{
#if defined(__x86_64__) || defined(_M_X64)
    return simKernelConfig().svKernel != SvKernel::Portable &&
        cpuHasAvx2();
#else
    return false;
#endif
}

} // namespace

void
apply1q(Amp *amps, std::size_t size, int q, const Amp m[4])
{
#if defined(__x86_64__) || defined(_M_X64)
    if (useAvx2()) {
        apply1qAvx2(amps, size, q, m);
        return;
    }
#endif
    apply1qPortable(amps, size, q, m);
}

BranchNorms
measureSweep(const Amp *amps, std::size_t size, int q, const Amp k[3],
             Amp *out0, Amp *out1)
{
#if defined(__x86_64__) || defined(_M_X64)
    if (useAvx2())
        return measureSweepAvx2(amps, size, q, k, out0, out1);
#endif
    return measureSweepPortable(amps, size, q, k, out0, out1);
}

} // namespace sv
} // namespace dcmbqc

/**
 * @file
 * Dense amplitude kernels behind StateVector, each a portable scalar
 * kernel plus an AVX2 kernel processing two complex amplitudes per
 * vector, selected at runtime via simKernelConfig().svKernel plus
 * CPUID detection:
 *
 *  - the single-qubit butterfly of every gate;
 *  - the measurement sweep, the hot loop of MBQC pattern execution:
 *    every photon the pattern runner measures projects the state onto
 *    both branches of its basis in one pass.
 *
 * Both kernels of a pair perform the IEEE-754 operations in the same
 * order — complex multiply as (kr*ar - ki*ai, kr*ai + ki*ar), norms
 * as x*x + y*y, sums in index order, with separate mul/add (never
 * FMA; the TUs compile with -ffp-contract=off) — so their results are
 * bit-identical, which tests/test_sim_kernels.cc asserts to exact
 * ULP. That sequence is also what GCC's inline std::complex multiply
 * computes for finite operands, so the sweep reproduces a projection
 * written with std::complex bit for bit.
 */

#ifndef DCMBQC_SIM_SV_KERNELS_HH
#define DCMBQC_SIM_SV_KERNELS_HH

#include <complex>
#include <cstddef>

namespace dcmbqc
{
namespace sv
{

using Amp = std::complex<double>;

/** True when the CPU executes AVX2 (cached CPUID probe). */
bool cpuHasAvx2();

/**
 * Apply the 2x2 unitary m = {m00, m01, m10, m11} to qubit q of the
 * 2^n amplitude array: for each index pair (i0, i1 = i0 + 2^q),
 * a[i0] <- m00 a[i0] + m01 a[i1]; a[i1] <- m10 a[i0] + m11 a[i1].
 */
void apply1qPortable(Amp *amps, std::size_t size, int q,
                     const Amp m[4]);

#if defined(__x86_64__) || defined(_M_X64)
/**
 * AVX2 variant of apply1qPortable; q == 0 (stride 1) falls through
 * to the portable kernel. Call only when cpuHasAvx2().
 */
void apply1qAvx2(Amp *amps, std::size_t size, int q, const Amp m[4]);
#endif

/** Dispatch per simKernelConfig().svKernel and CPU support. */
void apply1q(Amp *amps, std::size_t size, int q, const Amp m[4]);

/** The squared norms of a measurement's two branches. */
struct BranchNorms
{
    double p0; ///< sum of |out0[r]|^2 in index order
    double p1; ///< sum of |out1[r]|^2 in index order
};

/**
 * The measurement sweep of qubit q over the 2^n amplitude array: for
 * each index pair r (i0 = r with a 0 inserted at bit q, i1 = i0 + 2^q)
 * out0[r] = k[0] a[i0] + k[1] a[i1] and out1[r] = k[0] a[i0] +
 * k[2] a[i1], the projections onto the two outcomes' basis vectors.
 * `out0` and `out1` hold size / 2 amplitudes each and must not
 * overlap `amps`.
 */
BranchNorms measureSweepPortable(const Amp *amps, std::size_t size,
                                 int q, const Amp k[3], Amp *out0,
                                 Amp *out1);

#if defined(__x86_64__) || defined(_M_X64)
/**
 * AVX2 variant of measureSweepPortable, two index pairs per vector;
 * a one-pair array falls through to the portable kernel. Call only
 * when cpuHasAvx2().
 */
BranchNorms measureSweepAvx2(const Amp *amps, std::size_t size, int q,
                             const Amp k[3], Amp *out0, Amp *out1);
#endif

/** Dispatch per simKernelConfig().svKernel and CPU support. */
BranchNorms measureSweep(const Amp *amps, std::size_t size, int q,
                         const Amp k[3], Amp *out0, Amp *out1);

} // namespace sv
} // namespace dcmbqc

#endif // DCMBQC_SIM_SV_KERNELS_HH

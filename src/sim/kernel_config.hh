/**
 * @file
 * Runtime selection of the simulation kernel implementations: three
 * switches, each between a fast path and its oracle. The fast paths
 * (symbolic replay on the bit-packed tableau, live-photon window,
 * AVX2 amplitude kernels) are the defaults; the scalar per-shot
 * replay, the full graph state and the portable kernel stay alive as
 * test oracles, selected per process through this config.
 *
 * Every pair of paths is bit-identical by contract — same outcomes,
 * same probabilities, same serialized artifacts — which
 * tests/test_sim_kernels.cc, tests/test_differential.cc and the
 * golden corpus pin. The config exists so one binary can run both
 * sides of that equivalence; a path that is not bit-identical to its
 * oracle gets no switch here.
 */

#ifndef DCMBQC_SIM_KERNEL_CONFIG_HH
#define DCMBQC_SIM_KERNEL_CONFIG_HH

namespace dcmbqc
{

/** Which dense amplitude kernels StateVector runs (gates, measurement). */
enum class SvKernel
{
    /** AVX2 when the CPU supports it, else portable. */
    Auto,

    /** Scalar reference kernel (always available). */
    Portable,

    /** AVX2 kernel; silently falls back when unsupported. */
    Avx2,
};

/**
 * Process-wide kernel switches. Mutated only by tests and benches
 * (single-threaded setup); the execution backends read it once per
 * run, so toggling mid-run is undefined.
 */
struct SimKernelConfig
{
    /**
     * The stabilizer-replay backends replay the pattern once per run
     * on the bit-packed tableau, with each sign an affine form of
     * the random outcomes, and sample every shot from the output
     * forms; false replays every shot on the scalar
     * ScalarStabilizerSim oracle instead.
     */
    bool packedTableau;

    /**
     * The stabilizer and schedule backends replay on a live-photon
     * window, a tableau as wide as the peak number of live photons;
     * false prepares the whole graph state before the first
     * measurement (see exec/stabilizer_replay.hh). The statevector
     * backend always replays each shot with `runPattern`.
     */
    bool liveWindow;

    /** Amplitude kernel selection for StateVector. */
    SvKernel svKernel;
};

/** The mutable process-wide config (defaults: every fast path). */
SimKernelConfig &simKernelConfig();

/** Reset to the defaults (test teardown helper). */
void resetSimKernelConfig();

} // namespace dcmbqc

#endif // DCMBQC_SIM_KERNEL_CONFIG_HH

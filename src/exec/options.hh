/**
 * @file
 * Execution-side configuration of the `ExecutionBackend` subsystem.
 * Mirrors the compile-side `CompileOptions` contract: every field a
 * caller can get wrong is checked up front by `validate()` and
 * reported through the Status channel (zero shots, negative seeds,
 * negative thread counts, unknown backend names) instead of being
 * silently defaulted or tripping an assert inside a backend.
 */

#ifndef DCMBQC_EXEC_OPTIONS_HH
#define DCMBQC_EXEC_OPTIONS_HH

#include <cstdint>
#include <optional>
#include <string>

#include "api/status.hh"
#include "noise/config.hh"
#include "photonic/loss_model.hh"

namespace dcmbqc
{

/** How one execution request should be run. */
struct ExecOptions
{
    /**
     * Registry name of the backend to run on: "statevector",
     * "stabilizer", or "mc-loss" (see exec/backend.hh). validate()
     * rejects names absent from the registry.
     */
    std::string backend = "statevector";

    /** Number of sampling shots (must be >= 1). */
    int shots = 256;

    /**
     * Deterministic master seed. Every shot derives an independent
     * stream from (seed, shot index), so results are bit-identical
     * for equal seeds regardless of the worker count. Kept signed so
     * a negative value (e.g. a failed upstream parse) is *rejected*
     * rather than silently wrapped into a huge unsigned seed.
     */
    std::int64_t seed = 1;

    /**
     * Worker threads for parallel shot sampling; 0 picks the
     * hardware concurrency, 1 runs inline. Negative is rejected.
     */
    int numThreads = 0;

    /**
     * Undo the residual MBQC byproducts X^{sx} Z^{sz} on the output
     * wires before sampling, so the sampled distribution equals the
     * ideal circuit output. When false, raw (uncorrected) outcomes
     * are sampled and exact probabilities are unavailable.
     */
    bool applyByproducts = true;

    /**
     * Delay-line loss model of the mc-loss backend's built-in
     * config: one `delay-line` mechanism with these three parameters,
     * sampled whenever `noise` is absent or vacuous.
     */
    LossModel lossModel;

    /**
     * Pluggable noise configuration (src/noise/). When set and
     * non-vacuous, the mc-loss backend samples every configured
     * mechanism in place of its built-in `delay-line` config, and
     * the simulator backends inject the loss / outcome-flip
     * channels. When absent (or vacuous) every backend is
     * bit-identical to a run without this field. validate() resolves
     * the config against the mechanism registry and rejects unknown
     * mechanisms or out-of-domain parameters.
     */
    std::optional<NoiseConfig> noise;

    /** Check every field against its documented domain. */
    Status validate() const;
};

} // namespace dcmbqc

#endif // DCMBQC_EXEC_OPTIONS_HH

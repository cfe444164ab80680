/**
 * @file
 * Executes a measurement pattern on the state-vector simulator with
 * full runtime byproduct tracking (flow corrections), exactly as a
 * photonic MBQC machine would: nodes are created lazily, entangled,
 * measured at the adapted angle (-1)^{sx} theta + sz*pi, and
 * destroyed. The statevector backend samples every shot through
 * it, and tests use it as the dense oracle that compiled patterns
 * reproduce the original circuit.
 */

#ifndef DCMBQC_SIM_PATTERN_RUNNER_HH
#define DCMBQC_SIM_PATTERN_RUNNER_HH

#include <vector>

#include "common/rng.hh"
#include "common/types.hh"
#include "mbqc/pattern.hh"
#include "sim/statevector.hh"

namespace dcmbqc
{

/** Outcome of executing a pattern. */
struct PatternRunResult
{
    /** Final state of the output nodes, ordered by circuit wire. */
    StateVector outputState;

    /** Measurement outcome of each measured node (by node id). */
    std::vector<int> outcomes;

    /** Residual X byproduct parity per output wire. */
    std::vector<int> outputXParity;

    /** Residual Z byproduct parity per output wire. */
    std::vector<int> outputZParity;

    /** Peak number of simultaneously alive simulator qubits. */
    int peakWidth = 0;
};

/**
 * Run a pattern with adaptive measurements.
 *
 * @param pattern The pattern (validate()d).
 * @param rng Source of measurement randomness.
 * @param apply_byproducts When true the residual output byproducts
 *        X^{sx} Z^{sz} are undone so the result equals the ideal
 *        circuit output; when false the raw state is returned with
 *        parities reported.
 */
PatternRunResult runPattern(const Pattern &pattern, Rng &rng,
                            bool apply_byproducts = true);

} // namespace dcmbqc

#endif // DCMBQC_SIM_PATTERN_RUNNER_HH

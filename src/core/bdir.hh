/**
 * @file
 * Bottleneck-Driven Iterative Refinement (Algorithm 3): a simulated
 * annealing loop whose neighborhood generator precisely targets the
 * schedule's primary bottleneck:
 *   1. FINDBOTTLENECKTASK locates the task responsible for the
 *      current required photon lifetime;
 *   2. CALCULATEBALANCEPOINT finds the temporal equilibrium slot
 *      that balances the task's local cost sources;
 *   3. PINANDRESCHEDULE pins the task there and re-runs list
 *      scheduling with priorities equal to the current start times,
 *      preserving the schedule's relative ordering.
 */

#ifndef DCMBQC_CORE_BDIR_HH
#define DCMBQC_CORE_BDIR_HH

#include <cstdint>

#include "core/list_scheduler.hh"
#include "core/lsp.hh"

namespace dcmbqc
{

class NoiseModel;

/** SA parameters of Algorithm 3 (paper defaults in Section V-A). */
struct BdirConfig
{
    /** Initial temperature T0. */
    double initialTemperature = 10.0;

    /** Cooling rate alpha. */
    double coolingRate = 0.95;

    /** Maximum iterations Imax. */
    int maxIterations = 20;

    std::uint64_t seed = 17;
};

/**
 * Diagnostics of one BDIR run. Deterministic for a seed, and kept
 * out of artifact bytes, cache keys and the RefineBdir stage note.
 */
struct BdirStats
{
    int iterations = 0;

    /**
     * generateNeighbor calls. A rejected neighbour is kept for the
     * next iteration, so this is acceptedMoves or acceptedMoves + 1,
     * not one per iteration: a run that accepts nothing builds one.
     */
    int neighborsBuilt = 0;

    int acceptedMoves = 0;
    int improvedMoves = 0;
    int initialLifetime = 0;
    int finalLifetime = 0;
};

/**
 * Run Algorithm 3 starting from `initial` (typically the default
 * list schedule).
 *
 * With a noise model, the SA objective becomes the negated schedule
 * log survival (`scheduleLogSurvival`) instead of tau_photon, so the
 * refinement trades storage and connector waits by their actual
 * composite loss instead of the worst single wait. Stats lifetimes
 * stay in tau_photon cycles either way. Without a model, behavior is
 * bit-identical to the noise-free algorithm.
 *
 * @param stats Optional out diagnostics.
 * @param noise Optional noise model driving the SA objective.
 * @return The best schedule found (never worse than `initial`).
 */
Schedule bdirOptimize(const LayerSchedulingProblem &lsp,
                      const Schedule &initial,
                      const BdirConfig &config = {},
                      BdirStats *stats = nullptr,
                      const NoiseModel *noise = nullptr);

/**
 * The neighborhood generator (exposed for tests): one
 * find-bottleneck / balance-point / pin-and-reschedule step.
 */
Schedule generateNeighbor(const LayerSchedulingProblem &lsp,
                          const Schedule &current);

} // namespace dcmbqc

#endif // DCMBQC_CORE_BDIR_HH

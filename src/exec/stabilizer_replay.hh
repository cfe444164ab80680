/**
 * @file
 * Replay of a Clifford measurement pattern on a stabilizer tableau
 * in an arbitrary (correction-valid) measurement order — the shared
 * core of the stabilizer and schedule backends, which differ only in
 * the order they pass.
 *
 * Derive once, sample per shot: an outcome acts on the tableau only
 * through Paulis (the adapted angle's Z, the reset X, the output
 * byproducts), so every row's Pauli part, and with it which
 * measurements are random, is the same in every shot, and every
 * sign is an affine GF(2) form of the random outcomes.
 * SymbolicReplay replays the pattern once per run on the packed
 * StabilizerSim with form-valued signs and keeps one form per output
 * wire; a shot draws its random outcomes and evaluates the forms
 * (the reference-sample idea of Gidney, arXiv:2103.02202). With
 * SimKernelConfig::packedTableau off, ScalarReplayStepper replays
 * every shot on the scalar ScalarStabilizerSim instead: the oracle.
 *
 * Live window: like the photonic machine, the replay never holds the
 * whole graph state. A plan built once per run creates each photon
 * (H, then CZ to its live neighbours) just before the first
 * measurement that needs it — its own or a neighbour's — and resets
 * and frees a measured photon's tableau qubit for the next photon,
 * so the tableau is as wide as the peak number of live photons, not
 * the whole pattern. Outcomes are those of the full graph state:
 * every CZ lands before either endpoint is measured and commutes
 * with everything on other qubits, and a measured qubit is a Z
 * eigenstate in product with the rest. With
 * SimKernelConfig::liveWindow off, the plan creates every node in id
 * order before the first measurement (qubit = node id): the full
 * graph state, the window's oracle.
 *
 * A deterministic measurement consumes no RNG (measureZ), so each
 * shot draws one bernoulli(0.5) per random measurement, in order,
 * under either plan and either replay.
 */

#ifndef DCMBQC_EXEC_STABILIZER_REPLAY_HH
#define DCMBQC_EXEC_STABILIZER_REPLAY_HH

#include <cstddef>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "api/status.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "exec/result.hh"
#include "mbqc/pattern.hh"

namespace dcmbqc
{

/**
 * Base quarter turns k (angle ~= k*pi/2 within 1e-9 turns, k in
 * [0,4)) of every measured node, 0 for outputs; or
 * FAILED_PRECONDITION naming `backend` and the first node whose
 * angle is not such a multiple — NaN and infinities included.
 */
Expected<std::vector<int>> cliffordBaseTurns(const Pattern &pattern,
                                             const std::string &backend);

/** Where and when a replay prepares each photon. */
struct ReplayPlan
{
    /** Tableau qubit of each node. */
    std::vector<int> qubit;

    /**
     * Preparation gates on tableau qubits in application order: H
     * on `first` when `second` < 0, else CZ(first, second).
     */
    std::vector<std::pair<int, int>> prep;

    /**
     * prepEnd[i]: the prep gates applied before measurement i of the
     * order; the last entry is all of them, before the outputs.
     */
    std::vector<std::size_t> prepEnd;

    /** Tableau qubits ever allocated (at least 1). */
    int width = 1;
};

/**
 * Plan a replay of `pattern` in `order`. With `live_window`, each
 * measurement first creates the measured node and its missing
 * neighbours, taking the most recently freed qubit (else a new one),
 * and then frees the measured node's qubit; the nodes no measurement
 * needed (outputs) are created in id order before the output phase.
 * Without it, every node is created in id order up front.
 */
ReplayPlan planReplay(const Pattern &pattern,
                      const std::vector<NodeId> &order,
                      bool live_window);

/**
 * One-shot-at-a-time replay on the scalar tableau: the oracle the
 * symbolic replay is tested against.
 */
class ScalarReplayStepper
{
  public:
    /** All referents must outlive the stepper. */
    ScalarReplayStepper(const Pattern &pattern,
                        const std::vector<NodeId> &order,
                        const std::vector<int> &base_turns,
                        bool apply_byproducts, bool live_window);

    /**
     * Sample one shot start to finish into `bits` (char w = output
     * wire w); returns its random output measurements. Safe to call
     * concurrently.
     */
    int run(Rng &rng, std::string &bits) const;

  private:
    const Pattern *pattern_;
    const std::vector<NodeId> *order_;
    const std::vector<int> *turns_;
    bool applyByproducts_;
    ReplayPlan plan_;
};

/**
 * A Clifford pattern replay derived once on the packed tableau:
 * which measurements are random and every output bit as an affine
 * form of their outcomes. Adapted angle (-1)^sx t + 2 sz quarter
 * turns is a fixed Clifford and then Z^c: t = 0 no gate, c = sz;
 * t = 2 no gate, c = sz ^ 1; t = 1 S, c = sx ^ sz ^ 1 (Sdg = S Z);
 * t = 3 S, c = sx ^ sz. Outcome o resets the photon with X^o and
 * XORs o into the flow corrections' sx and sz forms, which are held
 * only while their node is pending.
 */
class SymbolicReplay
{
  public:
    SymbolicReplay(const Pattern &pattern,
                   const std::vector<NodeId> &order,
                   const std::vector<int> &base_turns,
                   bool apply_byproducts, bool live_window);

    /**
     * Sample one shot into `bits` (char w = output wire w) with
     * `draws` as scratch; returns its random output measurements.
     * Draws the outcomes as measureZ would, one bernoulli(0.5) per
     * random measurement in replay order: that holds exactly when
     * bit 63 of next() is clear, which is what it reads.
     */
    int sample(Rng &rng, std::vector<std::uint64_t> &draws,
               std::string &bits) const;

  private:
    /** Random measurements, outputs included: a shot's draws. */
    int random_ = 0;
    int randomOutputs_ = 0;
    int words_ = 1;

    /** Output wire w's form at [w * words_, (w + 1) * words_). */
    std::vector<std::uint64_t> outputForms_;
};

class NoiseChannel;

/**
 * Sample `shots` shots of a Clifford pattern replay with
 * `tallyShots` and tally them into `result`; each shot carries the
 * exact probability 2^-r of its outcome (r random output
 * measurements) when `apply_byproducts`. The packed kernel config
 * derives a SymbolicReplay once; the scalar one replays every shot.
 * Returns INTERNAL when two shots give one outcome different
 * probabilities, which would mean wrong flow corrections.
 */
Status sampleStabShots(const Pattern &pattern,
                       const std::vector<NodeId> &order,
                       const std::vector<int> &base_turns,
                       bool apply_byproducts, int shots, int threads,
                       std::int64_t seed, const NoiseChannel *noise,
                       ExecResult &result);

} // namespace dcmbqc

#endif // DCMBQC_EXEC_STABILIZER_REPLAY_HH

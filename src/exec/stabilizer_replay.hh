/**
 * @file
 * Replay of a Clifford measurement pattern on a stabilizer tableau
 * in an arbitrary (correction-valid) measurement order — the shared
 * core of the stabilizer and schedule backends, which differ only in
 * the order they pass. Templated over the tableau type so the same
 * shot loop runs the bit-packed StabilizerSim or the scalar
 * ScalarStabilizerSim oracle, selected per run from
 * simKernelConfig().packedTableau.
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
 * under either plan.
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
#include "exec/backend.hh"
#include "mbqc/pattern.hh"
#include "sim/kernel_config.hh"
#include "sim/stabilizer.hh"
#include "sim/stabilizer_reference.hh"

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

/** One sampled shot of a stabilizer pattern replay. */
struct StabReplayResult
{
    std::string bits;

    /** Non-deterministic output measurements in this shot. */
    int randomOutputs = 0;
};

template <class Sim>
class StabReplayStepper
{
  public:
    /** All referents must outlive the stepper. */
    StabReplayStepper(const Pattern &pattern,
                      const std::vector<NodeId> &order,
                      const std::vector<int> &base_turns,
                      bool apply_byproducts, bool live_window)
        : pattern_(&pattern), order_(&order), turns_(&base_turns),
          applyByproducts_(apply_byproducts),
          plan_(planReplay(pattern, order, live_window))
    {
    }

    /** Tableau qubits each shot simulates. */
    int width() const { return plan_.width; }

    /** Sample one shot start to finish; safe to call concurrently. */
    StabReplayResult run(Rng &rng) const
    {
        const Pattern &pattern = *pattern_;
        const std::vector<NodeId> &order = *order_;
        const std::vector<int> &qubit = plan_.qubit;
        Sim sim(plan_.width);
        std::vector<int> sx(pattern.numNodes(), 0);
        std::vector<int> sz(pattern.numNodes(), 0);
        std::size_t gate = 0;
        const auto prepare = [&](std::size_t end) {
            for (; gate < end; ++gate) {
                const auto [a, b] = plan_.prep[gate];
                if (b < 0)
                    sim.applyH(a);
                else
                    sim.applyCZ(a, b);
            }
        };

        for (std::size_t i = 0; i < order.size(); ++i) {
            prepare(plan_.prepEnd[i]);
            const NodeId m = order[i];
            const int q = qubit[m];
            // Adapted angle (-1)^{sx} theta + sz*pi, exactly in
            // integer quarter turns; conjugate by P(-k*pi/2) and H so
            // the measurement is plain Z-basis.
            const int k = (((sx[m] ? -(*turns_)[m] : (*turns_)[m]) +
                            (sz[m] ? 2 : 0)) % 4 + 4) % 4;
            switch (k) {
              case 1: sim.applySdg(q); break;
              case 2: sim.applyZ(q); break;
              case 3: sim.applyS(q); break;
              default: break;
            }
            sim.applyH(q);
            if (sim.measureZ(q, rng).outcome) {
                // Back to |0> for the photon that reuses the qubit.
                sim.applyX(q);
                // Flow corrections: X on f(m), Z on N(f(m)) \ {m}.
                const NodeId succ = pattern.flow(m);
                sx[succ] ^= 1;
                for (const auto &adj : pattern.graph().adjacency(succ))
                    if (adj.neighbor != m)
                        sz[adj.neighbor] ^= 1;
            }
        }
        prepare(plan_.prep.size());

        const auto &outputs = pattern.outputs();
        StabReplayResult result;
        result.bits.assign(outputs.size(), '0');
        for (std::size_t wire = 0; wire < outputs.size(); ++wire) {
            const NodeId o = outputs[wire];
            const int q = qubit[o];
            if (applyByproducts_) {
                if (sz[o])
                    sim.applyZ(q);
                if (sx[o])
                    sim.applyX(q);
            }
            const StabMeasureResult mr = sim.measureZ(q, rng);
            if (mr.outcome)
                result.bits[wire] = '1';
            if (!mr.deterministic)
                ++result.randomOutputs;
        }
        return result;
    }

  private:
    const Pattern *pattern_;
    const std::vector<NodeId> *order_;
    const std::vector<int> *turns_;
    bool applyByproducts_;
    ReplayPlan plan_;
};

/**
 * Sample `shots` shots of a Clifford pattern replay over the worker
 * pool under the current kernel config, one plan shared by every
 * worker, calling post(shot, result) from the worker that sampled
 * the shot. `post` must be safe to call concurrently for distinct
 * shots.
 */
template <class Post>
void
sampleStabShots(const Pattern &pattern,
                const std::vector<NodeId> &order,
                const std::vector<int> &base_turns,
                bool apply_byproducts, int shots, int threads,
                std::int64_t seed, const Post &post)
{
    const auto sample = [&](const auto &stepper) {
        forEachShot(shots, threads, [&](int shot) {
            Rng rng(shotSeed(seed, shot));
            post(shot, stepper.run(rng));
        });
    };
    const SimKernelConfig &config = simKernelConfig();
    if (config.packedTableau)
        sample(StabReplayStepper<StabilizerSim>(
            pattern, order, base_turns, apply_byproducts,
            config.liveWindow));
    else
        sample(StabReplayStepper<ScalarStabilizerSim>(
            pattern, order, base_turns, apply_byproducts,
            config.liveWindow));
}

} // namespace dcmbqc

#endif // DCMBQC_EXEC_STABILIZER_REPLAY_HH

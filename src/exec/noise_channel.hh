/**
 * @file
 * `NoiseChannel`: the one code that turns a noise model into a
 * shot's draws, for every execution backend. A channel is built once
 * per run from a `NoiseModel` and the program's exposure —
 * `schedule` and `mc-loss` pass `buildExposure` over the compiled
 * schedule, `stabilizer` and `statevector` pass `patternExposure`
 * (schedule-free sites: no storage, no connectors, no fusions, so
 * storage-dependent mechanisms charge nothing there by design) — and
 * analyzes it once (`analyzeNoise`): the analytic survival, the
 * storage figures and the per-site and per-fusion loss to draw.
 *
 * Per shot the channel draws each site's independent loss, then runs
 * the correlated hooks, then draws each fusion; a shot that lost no
 * photon then draws one flip per outcome bit. A run in which no
 * photon can be lost (no site or fusion loss, no correlated
 * mechanism) makes no loss draws.
 *
 * The bitstring backends draw noise from a *separate* stream
 * (`shotSeed(seed, shot) ^ kNoiseStreamSalt`), never the outcome
 * stream, so a run without a channel samples the same outcomes;
 * `mc-loss`, which samples nothing else, draws loss from the shot's
 * own stream.
 */

#ifndef DCMBQC_EXEC_NOISE_CHANNEL_HH
#define DCMBQC_EXEC_NOISE_CHANNEL_HH

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "api/status.hh"
#include "common/rng.hh"
#include "common/types.hh"
#include "exec/options.hh"
#include "noise/analysis.hh"
#include "noise/model.hh"

namespace dcmbqc
{

/**
 * Stream salt separating noise draws from outcome draws; XORed into
 * `shotSeed(seed, shot)` to derive the per-shot noise stream.
 */
inline constexpr std::uint64_t kNoiseStreamSalt =
    0x5851f42d4c957f2dull;

/** One run's noise: its analysis and its per-shot draws. */
class NoiseChannel
{
  public:
    /** Analyze `model` over `exposure`, once for the whole run. */
    NoiseChannel(NoiseModel model, NoiseExposure exposure);

    /**
     * The channel of `options.noise` over `expose()`, which is called
     * only when the config charges anything; null for an absent or
     * vacuous config, Status for an invalid one.
     */
    static Expected<std::unique_ptr<NoiseChannel>>
    make(const ExecOptions &options,
         const std::function<NoiseExposure()> &expose);

    /** Analytic survival, storage figures and draw probabilities. */
    const NoiseAnalysis &analysis() const { return analysis_; }

    /**
     * A correlated mechanism samples part of the loss, so a shot's
     * loss draws are not one independent trial per site and fusion.
     */
    bool correlated() const { return correlated_; }

    /**
     * Draw one shot's loss from `rng`: each site's independent loss,
     * then the correlated hooks, then each fusion. Returns the lost
     * photons (> 0 voids the shot).
     */
    int sampleLoss(Rng &rng) const;

    /**
     * Shot `shot`'s noise on its salted stream: its loss and, when it
     * lost nothing, a flip of each of `bits` with the composite flip
     * probability. Returns the lost photons.
     */
    int sampleShot(std::int64_t seed, int shot, std::string &bits) const;

    /** A shot can lose a photon or have a bit flipped. */
    bool drawsNoise() const { return canLose_ || flip_ > 0.0; }

    /** "delay-line+depolarizing" — for result notes. */
    std::string description() const { return model_.describe(); }

  private:
    NoiseModel model_;
    NoiseAnalysis analysis_;
    std::vector<NoiseSite> sites_;
    double flip_ = 0.0;
    bool correlated_ = false;
    bool canLose_ = false;
};

/**
 * The channel a bitstring backend (`stabilizer`, `statevector`,
 * `schedule`) draws from: `channel`, or null when it can neither lose
 * a photon nor flip a bit over its exposure. Such a run is the
 * noise-free run, exact probabilities included.
 */
const NoiseChannel *
drawingChannel(const std::unique_ptr<NoiseChannel> &channel);

/**
 * Schedule-free exposure of `num_nodes` pattern photons: one site
 * each, with no storage and no connector, and no fusions.
 */
NoiseExposure patternExposure(NodeId num_nodes);

} // namespace dcmbqc

#endif // DCMBQC_EXEC_NOISE_CHANNEL_HH

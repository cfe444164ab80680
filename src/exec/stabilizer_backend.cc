#include "exec/stabilizer_backend.hh"

#include <cmath>

#include "common/rng.hh"
#include "exec/noise_channel.hh"
#include "exec/stabilizer_replay.hh"

namespace dcmbqc
{

namespace
{

/** One sampled shot: the output bits plus their exact probability. */
struct StabShot
{
    std::string bits;

    /** Non-deterministic output measurements in this shot. */
    int randomOutputs = 0;

    /** Photons lost to the noise channel (> 0 voids the shot). */
    int lostPhotons = 0;
};

} // namespace

BackendCapabilities
StabilizerBackend::capabilities() const
{
    BackendCapabilities caps;
    caps.runsPattern = true;
    caps.cliffordOnly = true;
    caps.exactProbabilities = true;
    return caps;
}

Expected<ExecResult>
StabilizerBackend::run(const ExecProgram &program,
                       const ExecOptions &options) const
{
    const Pattern &pattern = program.pattern();
    auto base_turns = cliffordBaseTurns(pattern, "stabilizer");
    if (!base_turns.ok())
        return base_turns.status();

    auto channel = NoiseChannel::make(options, pattern.numNodes());
    if (!channel.ok())
        return channel.status();

    ExecResult result;
    result.numWires = pattern.numWires();
    result.threads = resolveThreads(options.numThreads, options.shots);

    std::vector<StabShot> shots(options.shots);
    const auto post = [&](int shot, StabReplayResult r) {
        shots[shot].bits = std::move(r.bits);
        shots[shot].randomOutputs = r.randomOutputs;
        if (channel->active()) {
            Rng noise_rng(shotSeed(options.seed, shot) ^
                          kNoiseStreamSalt);
            shots[shot].lostPhotons =
                channel->sampleLoss(noise_rng);
            if (shots[shot].lostPhotons == 0)
                channel->applyFlips(noise_rng, shots[shot].bits);
        }
    };
    sampleStabShots(pattern, pattern.measurementOrder(), *base_turns,
                    options.applyByproducts, options.shots,
                    result.threads, options.seed, post);

    for (StabShot &shot : shots) {
        if (shot.lostPhotons > 0) {
            ++result.lostShots;
            result.lostPhotons += shot.lostPhotons;
            continue;
        }
        // Chain rule over the sequential output measurements: each
        // deterministic one contributes 1, each random one 1/2.
        // Outcome flips decouple the sampled bitstring from its
        // chain-rule probability, so the exact map is skipped when
        // the channel flips bits.
        const double p = std::ldexp(1.0, -shot.randomOutputs);
        if (options.applyByproducts && !channel->active()) {
            // The corrected distribution is outcome-independent, so
            // equal bitstrings must agree on their probability; a
            // mismatch means the flow corrections are wrong.
            const auto it = result.probabilities.find(shot.bits);
            if (it != result.probabilities.end() &&
                std::fabs(it->second - p) > 1e-12)
                return Status::internal(
                    "inconsistent exact probabilities for outcome " +
                    shot.bits + ": " + std::to_string(it->second) +
                    " vs " + std::to_string(p));
            result.probabilities[shot.bits] = p;
        }
        ++result.counts[std::move(shot.bits)];
    }
    result.completedShots = options.shots - result.lostShots;
    if (!options.applyByproducts)
        result.notes.push_back(
            "exact probabilities unavailable: byproducts left "
            "uncorrected, per-shot probabilities are conditional on "
            "the intermediate outcomes");
    if (channel->active())
        result.notes.push_back(
            "noise channel applied per shot (" +
            channel->description() +
            "); exact probabilities omitted under noise");
    return result;
}

} // namespace dcmbqc

#include "exec/stabilizer_backend.hh"

#include "common/rng.hh"
#include "exec/noise_channel.hh"
#include "exec/stabilizer_replay.hh"

namespace dcmbqc
{

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

    // Noise draws use a salted per-shot stream, never the outcome
    // stream. Outcome flips decouple the sampled bitstring from its
    // chain-rule probability, so the exact map is skipped under noise.
    ShotNoise noise;
    if (channel->active())
        noise = [&](int shot, std::string &bits) {
            Rng noise_rng(shotSeed(options.seed, shot) ^
                          kNoiseStreamSalt);
            const int lost = channel->sampleLoss(noise_rng);
            if (lost == 0)
                channel->applyFlips(noise_rng, bits);
            return lost;
        };
    const Status sampled = sampleStabShots(
        pattern, pattern.measurementOrder(), *base_turns,
        options.applyByproducts, options.shots, result.threads,
        options.seed, noise, result);
    if (!sampled.ok())
        return sampled;
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

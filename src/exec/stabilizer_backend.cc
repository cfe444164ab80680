#include "exec/stabilizer_backend.hh"

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

    auto channel = NoiseChannel::make(
        options, [&] { return patternExposure(pattern.numNodes()); });
    if (!channel.ok())
        return channel.status();
    const NoiseChannel *noise = drawingChannel(*channel);

    ExecResult result;
    result.numWires = pattern.numWires();
    result.threads = resolveThreads(options.numThreads, options.shots);

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
    if (noise)
        result.notes.push_back(
            "noise channel applied per shot (" +
            noise->description() +
            "); exact probabilities omitted under noise");
    return result;
}

} // namespace dcmbqc

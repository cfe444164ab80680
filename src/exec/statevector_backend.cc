#include "exec/statevector_backend.hh"

#include <cmath>

#include "exec/noise_channel.hh"
#include "sim/pattern_runner.hh"
#include "sim/statevector.hh"

namespace dcmbqc
{

namespace
{

/** Dense amplitudes bound the backend to this many output wires. */
constexpr int kMaxWires = 20;

/** Amplitudes below this are rounding noise, not outcomes. */
constexpr double kProbEpsilon = 1e-12;

/** Bitstring key of amplitude index `idx`: char w = wire w. */
std::string
bitsOfIndex(std::size_t idx, int wires)
{
    std::string bits(wires, '0');
    for (int w = 0; w < wires; ++w)
        if (idx & (std::size_t(1) << w))
            bits[w] = '1';
    return bits;
}

} // namespace

BackendCapabilities
StatevectorBackend::capabilities() const
{
    BackendCapabilities caps;
    caps.runsPattern = true;
    caps.exactProbabilities = true;
    caps.maxWires = kMaxWires;
    return caps;
}

Expected<ExecResult>
StatevectorBackend::run(const ExecProgram &program,
                        const ExecOptions &options) const
{
    const Pattern &pattern = program.pattern();
    const int wires = pattern.numWires();

    auto channel = NoiseChannel::make(
        options, [&] { return patternExposure(pattern.numNodes()); });
    if (!channel.ok())
        return channel.status();
    const NoiseChannel *noise = drawingChannel(*channel);

    ExecResult result;
    result.numWires = wires;
    result.threads = resolveThreads(options.numThreads, options.shots);

    const Status sampled = tallyShots(
        options.shots, result.threads, options.seed, noise,
        [&](Rng &rng, std::string &bits) {
            PatternRunResult run =
                runPattern(pattern, rng, options.applyByproducts);
            StateVector &state = run.outputState;
            bits.assign(wires, '0');
            for (int w = 0; w < wires; ++w) {
                // Wire w is simulator qubit w; removal shifts the
                // rest down, so the front qubit is always the next
                // wire.
                if (state.measureZAndRemove(0, rng).outcome)
                    bits[w] = '1';
            }
            // The exact distribution comes from one reference run
            // below, not from the shots.
            return -1.0;
        },
        result);
    if (!sampled.ok())
        return sampled;
    if (noise)
        result.notes.push_back("noise channel applied per shot (" +
                               noise->description() +
                               "); exact probabilities are noiseless");

    if (options.applyByproducts) {
        // Byproduct correction makes the output state deterministic
        // (independent of the measurement outcomes), so one extra
        // run yields the exact distribution of every outcome.
        Rng rng(shotSeed(options.seed, options.shots));
        const PatternRunResult reference =
            runPattern(pattern, rng, /*apply_byproducts=*/true);
        const auto &amps = reference.outputState.amplitudes();
        for (std::size_t idx = 0; idx < amps.size(); ++idx) {
            const double p = std::norm(amps[idx]);
            if (p > kProbEpsilon)
                result.probabilities[bitsOfIndex(idx, wires)] = p;
        }
    } else {
        result.notes.push_back(
            "exact probabilities unavailable: byproducts left "
            "uncorrected, the raw output state varies per shot");
    }
    return result;
}

} // namespace dcmbqc

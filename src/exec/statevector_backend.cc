#include "exec/statevector_backend.hh"

#include <cmath>
#include <map>
#include <mutex>

#include "common/rng.hh"
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

    auto channel = NoiseChannel::make(options, pattern.numNodes());
    if (!channel.ok())
        return channel.status();

    ExecResult result;
    result.numWires = wires;
    result.threads = resolveThreads(options.numThreads, options.shots);

    // One block per worker, each a contiguous run of shots tallied
    // into its own counts and merged under a lock, so memory does not
    // grow with the shot count. Sampling order within a shot is
    // (shot, wire) and the merge only adds integers, so the result is
    // bit-identical however the pool schedules the blocks. Noise
    // draws use a salted per-shot stream, never the outcome stream,
    // so an inactive channel changes nothing.
    std::mutex merge;
    forEachShotBlock(options.shots, result.threads, [&](ShotRange range) {
        std::map<std::string, std::int64_t> counts;
        int lost_shots = 0;
        std::int64_t lost_photons = 0;
        std::string bits;
        for (int shot = range.begin; shot < range.end; ++shot) {
            Rng rng(shotSeed(options.seed, shot));
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
            if (channel->active()) {
                Rng noise_rng(shotSeed(options.seed, shot) ^
                              kNoiseStreamSalt);
                const int lost = channel->sampleLoss(noise_rng);
                if (lost > 0) {
                    ++lost_shots;
                    lost_photons += lost;
                    continue;
                }
                channel->applyFlips(noise_rng, bits);
            }
            ++counts[bits];
        }
        const std::lock_guard<std::mutex> lock(merge);
        for (const auto &[key, count] : counts)
            result.counts[key] += count;
        result.lostShots += lost_shots;
        result.lostPhotons += lost_photons;
    });
    result.completedShots = options.shots - result.lostShots;
    if (channel->active())
        result.notes.push_back("noise channel applied per shot (" +
                               channel->description() +
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

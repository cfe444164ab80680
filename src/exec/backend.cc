#include "exec/backend.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <map>
#include <mutex>

#include "common/thread_pool.hh"
#include "exec/loss_backend.hh"
#include "exec/noise_channel.hh"
#include "exec/schedule_backend.hh"
#include "exec/stabilizer_backend.hh"
#include "exec/statevector_backend.hh"

namespace dcmbqc
{

namespace
{

std::mutex &
registryMutex()
{
    static std::mutex mutex;
    return mutex;
}

/** Built-ins registered on first access, in documented order. */
std::vector<std::unique_ptr<ExecutionBackend>> &
registry()
{
    static std::vector<std::unique_ptr<ExecutionBackend>> backends =
        [] {
            std::vector<std::unique_ptr<ExecutionBackend>> list;
            list.push_back(std::make_unique<StatevectorBackend>());
            list.push_back(std::make_unique<StabilizerBackend>());
            list.push_back(std::make_unique<MonteCarloLossBackend>());
            list.push_back(std::make_unique<ScheduleBackend>());
            return list;
        }();
    return backends;
}

} // namespace

const ExecutionBackend *
findBackend(const std::string &name)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    for (const auto &backend : registry())
        if (name == backend->name())
            return backend.get();
    return nullptr;
}

std::vector<std::string>
backendNames()
{
    std::lock_guard<std::mutex> lock(registryMutex());
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const auto &backend : registry())
        names.emplace_back(backend->name());
    return names;
}

Status
registerBackend(std::unique_ptr<ExecutionBackend> backend)
{
    if (!backend)
        return Status::invalidArgument(
            "registerBackend: null backend");
    std::lock_guard<std::mutex> lock(registryMutex());
    for (const auto &existing : registry())
        if (std::string(existing->name()) == backend->name())
            return Status::failedPrecondition(
                std::string("backend '") + backend->name() +
                "' already registered");
    registry().push_back(std::move(backend));
    return Status::okStatus();
}

std::uint64_t
shotSeed(std::int64_t seed, int shot)
{
    // Golden-ratio stride keeps the per-shot streams far apart in
    // the SplitMix64 expansion the Rng seeds through; statistical
    // independence is what matters here, not cryptography.
    return static_cast<std::uint64_t>(seed) ^
        (0x9e3779b97f4a7c15ull *
         (static_cast<std::uint64_t>(shot) + 1));
}

int
resolveThreads(int num_threads, int shots)
{
    int threads = num_threads > 0 ? num_threads
                                  : ThreadPool::defaultNumThreads();
    return std::max(1, std::min(threads, shots));
}

ShotRange
shotBlock(int shots, int blocks, int block)
{
    const auto bound = [&](int b) {
        return static_cast<int>(static_cast<std::int64_t>(shots) * b /
                                blocks);
    };
    return {bound(block), bound(block + 1)};
}

void
forEachShotBlock(int shots, int threads,
                 const std::function<void(ShotRange)> &body)
{
    if (threads <= 1) {
        body({0, shots});
        return;
    }
    // One contiguous block per worker keeps queue overhead
    // negligible even for very cheap shots.
    ThreadPool pool(threads);
    for (int block = 0; block < threads; ++block)
        pool.submit([&body, range = shotBlock(shots, threads, block)] {
            body(range);
        });
    pool.wait();
}

namespace
{

/** One block's share of a run: merged into the result at the end. */
struct ShotTally
{
    std::map<std::string, std::int64_t> counts;
    std::map<std::string, double> probabilities;
    int lostShots = 0;
    std::int64_t lostPhotons = 0;
    Status status = Status::okStatus();

    /** Record outcome `bits` at probability p. */
    void
    recordProbability(const std::string &bits, double p)
    {
        const auto it = probabilities.find(bits);
        if (it == probabilities.end()) {
            probabilities.emplace(bits, p);
        } else if (std::fabs(it->second - p) > 1e-12 && status.ok()) {
            // The corrected distribution is outcome-independent, so
            // equal bitstrings must agree on their probability.
            status = Status::internal(
                "inconsistent exact probabilities for outcome " +
                bits + ": " + std::to_string(it->second) + " vs " +
                std::to_string(p));
        }
    }

    void
    merge(const ShotTally &block)
    {
        for (const auto &[key, count] : block.counts)
            counts[key] += count;
        for (const auto &[key, p] : block.probabilities)
            recordProbability(key, p);
        lostShots += block.lostShots;
        lostPhotons += block.lostPhotons;
        if (status.ok())
            status = block.status;
    }
};

} // namespace

Status
tallyShots(int shots, int threads, std::int64_t seed,
           const NoiseChannel *noise, const ShotSampler &sample,
           ExecResult &result)
{
    ShotTally total;
    std::mutex merge;
    forEachShotBlock(shots, threads, [&](ShotRange range) {
        ShotTally tally;
        std::string bits;
        for (int shot = range.begin; shot < range.end; ++shot) {
            Rng rng(shotSeed(seed, shot));
            const double p = sample(rng, bits);
            if (noise) {
                const int lost = noise->sampleShot(seed, shot, bits);
                if (lost > 0) {
                    ++tally.lostShots;
                    tally.lostPhotons += lost;
                    continue;
                }
            } else if (p >= 0.0) {
                tally.recordProbability(bits, p);
            }
            ++tally.counts[bits];
        }
        const std::lock_guard<std::mutex> lock(merge);
        total.merge(tally);
    });
    if (!total.status.ok())
        return total.status;
    result.counts = std::move(total.counts);
    result.probabilities = std::move(total.probabilities);
    result.lostShots = total.lostShots;
    result.lostPhotons = total.lostPhotons;
    result.completedShots = shots - total.lostShots;
    return Status::okStatus();
}

void
forEachShot(int shots, int threads,
            const std::function<void(int)> &body)
{
    forEachShotBlock(shots, threads, [&body](ShotRange range) {
        for (int shot = range.begin; shot < range.end; ++shot)
            body(shot);
    });
}

Expected<ExecResult>
executeProgram(const ExecProgram &program, const ExecOptions &options)
{
    Status status = options.validate();
    if (!status.ok())
        return status;
    status = program.validate();
    if (!status.ok())
        return status;

    const ExecutionBackend *backend = findBackend(options.backend);
    // validate() already vetted the name; a vanished backend would
    // be a registry bug.
    if (!backend)
        return Status::internal("backend '" + options.backend +
                                "' disappeared from the registry");

    const BackendCapabilities caps = backend->capabilities();
    if (caps.runsPattern && !program.hasPattern())
        return Status::failedPrecondition(
            "backend '" + options.backend +
            "' executes measurement patterns, but the program has "
            "none (graph-entry programs carry no angles)");
    if (caps.runsSchedule && !program.hasSchedule() &&
        !program.hasBaseline())
        return Status::failedPrecondition(
            "backend '" + options.backend +
            "' executes compiled schedules; compile first (or use "
            "compileAndExecute, or attach a baseline)");
    if (caps.maxWires > 0 && program.hasPattern() &&
        program.pattern().numWires() > caps.maxWires)
        return Status::failedPrecondition(
            "backend '" + options.backend + "' is bounded to " +
            std::to_string(caps.maxWires) + " output wires, pattern " +
            "has " + std::to_string(program.pattern().numWires()));

    const auto start = std::chrono::steady_clock::now();
    Expected<ExecResult> result = backend->run(program, options);
    if (!result.ok())
        return result;

    result->backend = backend->name();
    result->label = program.label();
    result->shots = options.shots;
    result->seed = options.seed;
    result->wallMillis =
        std::chrono::duration<double, std::milli>(
            std::chrono::steady_clock::now() - start)
            .count();
    return result;
}

} // namespace dcmbqc

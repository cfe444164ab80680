#include "exec/loss_backend.hh"

#include <algorithm>
#include <atomic>
#include <memory>

#include "common/rng.hh"
#include "exec/loss_kernels.hh"
#include "exec/noise_channel.hh"

namespace dcmbqc
{

Expected<std::vector<TimeSlot>>
schedulePhotonTimes(const DcMbqcResult &result, NodeId num_nodes)
{
    const auto &assignment = result.partition.assignment();
    if (static_cast<NodeId>(assignment.size()) != num_nodes)
        return Status::invalidArgument(
            "schedule partition covers " +
            std::to_string(assignment.size()) + " photons, program " +
            "has " + std::to_string(num_nodes));
    const int parts = result.partition.numParts();
    if (static_cast<int>(result.localSchedules.size()) != parts)
        return Status::invalidArgument(
            "schedule has " +
            std::to_string(result.localSchedules.size()) +
            " local schedules for " + std::to_string(parts) +
            " parts");

    // Main tasks are enumerated QPU-major, layer-minor — the same
    // order the LSP builder assigns task ids in, which is what
    // Schedule::mainStart is indexed by.
    const auto members = result.partition.partMembers();
    std::size_t total_layers = 0;
    for (const auto &local : result.localSchedules)
        total_layers += local.layers.size();
    if (result.schedule.mainStart.size() != total_layers)
        return Status::invalidArgument(
            "schedule holds " +
            std::to_string(result.schedule.mainStart.size()) +
            " main-task starts for " + std::to_string(total_layers) +
            " execution layers");

    std::vector<TimeSlot> times(num_nodes, 0);
    std::size_t task_base = 0;
    for (int qpu = 0; qpu < parts; ++qpu) {
        const auto &local = result.localSchedules[qpu];
        if (members[qpu].size() != local.nodeLayer.size())
            return Status::invalidArgument(
                "QPU " + std::to_string(qpu) + " hosts " +
                std::to_string(members[qpu].size()) +
                " photons but its local schedule maps " +
                std::to_string(local.nodeLayer.size()));
        for (std::size_t i = 0; i < members[qpu].size(); ++i) {
            const LayerId layer = local.nodeLayer[i];
            if (layer < 0 ||
                layer >= static_cast<LayerId>(local.layers.size()))
                return Status::invalidArgument(
                    "QPU " + std::to_string(qpu) + " photon " +
                    std::to_string(i) + " sits on layer " +
                    std::to_string(layer) + " of " +
                    std::to_string(local.layers.size()));
            times[members[qpu][i]] =
                result.schedule.mainStart[task_base + layer] *
                local.grid.plRatio;
        }
        task_base += local.layers.size();
    }
    return times;
}

BackendCapabilities
MonteCarloLossBackend::capabilities() const
{
    BackendCapabilities caps;
    caps.runsSchedule = true;
    return caps;
}

namespace
{

/**
 * The built-in error budget: delay-line storage loss under
 * `ExecOptions::lossModel`, which charges intra-QPU storage only.
 */
NoiseConfig
delayLineConfig(const LossModel &loss)
{
    NoiseConfig config;
    config.add("delay-line",
               {{"attenuation_db_per_km", loss.attenuationDbPerKm},
                {"cycle_period_ns", loss.cyclePeriodNs},
                {"speed_fraction", loss.speedFraction}});
    return config;
}

} // namespace

Expected<ExecResult>
MonteCarloLossBackend::run(const ExecProgram &program,
                           const ExecOptions &options) const
{
    const NodeId n = program.graph().numNodes();

    // Derive per-photon generation times and the QPU assignment from
    // whichever compiled form the program carries. A baseline is a
    // single QPU: no assignment, every fusion intra.
    std::vector<TimeSlot> times;
    const std::vector<int> *assignment = nullptr;
    if (program.hasSchedule()) {
        auto scheduled = schedulePhotonTimes(program.schedule(), n);
        if (!scheduled.ok())
            return scheduled.status();
        times = std::move(scheduled.value());
        assignment = &program.schedule().partition.assignment();
    } else if (program.hasBaseline()) {
        const LocalSchedule &local = program.baseline().schedule;
        times.resize(n);
        for (NodeId u = 0; u < n; ++u)
            times[u] = local.nodePhysicalTime(u);
    } else {
        return Status::failedPrecondition(
            "mc-loss requires a compiled schedule or a baseline");
    }

    ExecResult result;
    result.threads = resolveThreads(options.numThreads, options.shots);

    // Every mechanism samples over the program's exposure. Cut edges
    // mark connector photons and charge their tau_remote storage,
    // which only the connector mechanism prices.
    const auto expose = [&] {
        return buildExposure(program.graph(), program.deps(), times,
                             assignment);
    };
    // The caller's config when it charges anything, else the
    // built-in delay-line budget. Only a supplied config is named in
    // the notes, so default results keep their bytes.
    auto supplied = NoiseChannel::make(options, expose);
    if (!supplied.ok())
        return supplied.status();
    std::unique_ptr<NoiseChannel> channel = std::move(supplied.value());
    if (channel) {
        result.notes.push_back("noise model: " + channel->description());
    } else {
        auto built = buildNoiseModel(delayLineConfig(options.lossModel));
        if (!built.ok())
            return built.status();
        channel = std::make_unique<NoiseChannel>(std::move(built.value()),
                                                 expose());
    }
    const NoiseAnalysis &analysis = channel->analysis();
    result.analyticSuccessProbability = analysis.successProbability;
    result.maxStorageCycles = analysis.maxStorageCycles;
    result.meanStorageCycles = analysis.meanStorageCycles;

    // Shots are tallied as they finish, so memory does not grow with
    // the shot count; integer sums make the totals independent of
    // block and worker order.
    std::atomic<std::int64_t> lost_shots{0};
    std::atomic<std::int64_t> lost_photons{0};
    const auto tally = [&](const std::int64_t *lost, int shots) {
        std::int64_t shots_here = 0;
        std::int64_t photons_here = 0;
        for (int i = 0; i < shots; ++i) {
            shots_here += lost[i] > 0;
            photons_here += lost[i];
        }
        lost_shots.fetch_add(shots_here, std::memory_order_relaxed);
        lost_photons.fetch_add(photons_here, std::memory_order_relaxed);
    };

    if (!channel->correlated()) {
        // One integer threshold per draw, in the channel's draw
        // order: the sites, then the fusions. Fusion draws are the
        // last use of a shot's stream, so skipping them when no
        // fusion can fail changes no sampled value.
        const bool edge_loss = std::any_of(
            analysis.edgeLoss.begin(), analysis.edgeLoss.end(),
            [](double p) { return p > 0.0; });
        std::vector<std::uint64_t> thresholds;
        thresholds.reserve(analysis.siteLoss.size() +
                           (edge_loss ? analysis.edgeLoss.size() : 0));
        for (const double p : analysis.siteLoss)
            thresholds.push_back(loss::drawThreshold(p));
        if (edge_loss)
            for (const double p : analysis.edgeLoss)
                thresholds.push_back(loss::drawThreshold(p));
        const int blocks = options.shots / loss::kBlockShots +
            (options.shots % loss::kBlockShots != 0);
        const int threads = std::min(result.threads, blocks);
        forEachShot(blocks, threads, [&](int block) {
            const int first = block * loss::kBlockShots;
            const int shots =
                std::min(loss::kBlockShots, options.shots - first);
            std::int64_t lost[loss::kBlockShots];
            loss::countLost(thresholds.data(), thresholds.size(),
                            options.seed, first, shots, lost);
            tally(lost, shots);
        });
    } else {
        forEachShot(options.shots, result.threads, [&](int shot) {
            Rng rng(shotSeed(options.seed, shot));
            const std::int64_t lost = channel->sampleLoss(rng);
            tally(&lost, 1);
        });
    }
    result.lostShots = static_cast<int>(lost_shots.load());
    result.lostPhotons = lost_photons.load();
    result.completedShots = options.shots - result.lostShots;
    result.counts["success"] = result.completedShots;
    result.counts["loss"] = result.lostShots;
    result.probabilities["success"] = analysis.successProbability;
    result.probabilities["loss"] = 1.0 - analysis.successProbability;
    return result;
}

} // namespace dcmbqc

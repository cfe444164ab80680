#include "api/options.hh"

#include <cmath>
#include <sstream>

#include "cache/compile_cache.hh"
#include "noise/model.hh"

namespace dcmbqc
{

CompileOptions
CompileOptions::fromConfig(const DcMbqcConfig &config)
{
    CompileOptions options;
    options.config_ = config;
    return options;
}

CompileOptions
CompileOptions::fromConfig(const SingleQpuConfig &config)
{
    CompileOptions options;
    options.config_.numQpus = 1;
    options.config_.partition.k = 1;
    options.config_.grid = config.grid;
    options.config_.order = config.order;
    return options;
}

CompileOptions &
CompileOptions::numQpus(int qpus)
{
    config_.numQpus = qpus;
    // Keep the derived field in sync so build() only reports a
    // normalization when a *conflicting* partition.k was adopted
    // via fromConfig, not for every non-default QPU count.
    config_.partition.k = qpus;
    return *this;
}

CompileOptions &
CompileOptions::kmax(int kmax)
{
    config_.kmax = kmax;
    return *this;
}

CompileOptions &
CompileOptions::gridSize(int size)
{
    config_.grid.size = size;
    return *this;
}

CompileOptions &
CompileOptions::resourceState(ResourceStateType type)
{
    config_.grid.resourceState = type;
    return *this;
}

CompileOptions &
CompileOptions::plRatio(int ratio)
{
    config_.grid.plRatio = ratio;
    return *this;
}

CompileOptions &
CompileOptions::reservedBoundary(int cells)
{
    config_.grid.reservedBoundary = cells;
    return *this;
}

CompileOptions &
CompileOptions::epsilonQ(double epsilon)
{
    config_.partition.epsilonQ = epsilon;
    return *this;
}

CompileOptions &
CompileOptions::alphaMax(double alpha)
{
    config_.partition.alphaMax = alpha;
    return *this;
}

CompileOptions &
CompileOptions::gamma(double gamma)
{
    config_.partition.gamma = gamma;
    return *this;
}

CompileOptions &
CompileOptions::useBdir(bool enabled)
{
    config_.useBdir = enabled;
    return *this;
}

CompileOptions &
CompileOptions::bdirInitialTemperature(double t0)
{
    config_.bdir.initialTemperature = t0;
    return *this;
}

CompileOptions &
CompileOptions::bdirCoolingRate(double alpha)
{
    config_.bdir.coolingRate = alpha;
    return *this;
}

CompileOptions &
CompileOptions::bdirMaxIterations(int iterations)
{
    config_.bdir.maxIterations = iterations;
    return *this;
}

CompileOptions &
CompileOptions::placementOrder(PlacementOrder order)
{
    config_.order = order;
    return *this;
}

CompileOptions &
CompileOptions::seed(std::uint64_t seed)
{
    config_.partition.seed = seed;
    config_.bdir.seed = seed;
    return *this;
}

CompileOptions &
CompileOptions::cache(std::shared_ptr<CompileCache> cache)
{
    cache_ = std::move(cache);
    return *this;
}

CompileOptions &
CompileOptions::noise(NoiseConfig config)
{
    noise_ = std::move(config);
    return *this;
}

CompileOptions &
CompileOptions::portfolio(int candidates)
{
    portfolio_ = candidates;
    return *this;
}

CompileOptions &
CompileOptions::window(int gates_per_window)
{
    window_ = gates_per_window;
    return *this;
}

Status
CompileOptions::validate() const
{
    std::ostringstream problems;
    int count = 0;
    const auto complain = [&](const std::string &what) {
        if (count++ > 0)
            problems << "; ";
        problems << what;
    };

    if (config_.numQpus < 1)
        complain("numQpus must be >= 1 (got " +
                 std::to_string(config_.numQpus) + ")");
    if (config_.kmax < 1)
        complain("kmax must be >= 1 (got " +
                 std::to_string(config_.kmax) + ")");
    if (config_.grid.size < 1)
        complain("grid size must be positive (got " +
                 std::to_string(config_.grid.size) + ")");
    if (config_.grid.reservedBoundary < 0)
        complain("reservedBoundary must be >= 0 (got " +
                 std::to_string(config_.grid.reservedBoundary) + ")");
    if (config_.grid.size >= 1 && config_.grid.reservedBoundary >= 0 &&
        config_.grid.usableSize() < 2)
        complain("grid too small: usable side " +
                 std::to_string(config_.grid.usableSize()) +
                 " after boundary reservation, need >= 2");
    if (config_.grid.plRatio < 1)
        complain("plRatio must be >= 1 (got " +
                 std::to_string(config_.grid.plRatio) + ")");
    // Each floating-point check is written so that NaN fails it.
    const auto &partition = config_.partition;
    if (!(std::isfinite(partition.epsilonQ) && partition.epsilonQ >= 0.0))
        complain("epsilonQ must be finite and >= 0" +
                 gotValue(partition.epsilonQ));
    if (!(std::isfinite(partition.alphaMax) && partition.alphaMax >= 1.0))
        complain("alphaMax must be finite and >= 1" +
                 gotValue(partition.alphaMax));
    if (!(std::isfinite(partition.gamma) && partition.gamma > 1.0))
        complain("gamma must be finite and exceed 1" +
                 gotValue(partition.gamma));
    if (partition.maxIterations < 1)
        complain("partition maxIterations must be >= 1");
    const auto &bdir = config_.bdir;
    if (!(std::isfinite(bdir.initialTemperature) &&
          bdir.initialTemperature > 0.0))
        complain("bdirInitialTemperature must be finite and positive" +
                 gotValue(bdir.initialTemperature));
    if (!(bdir.coolingRate > 0.0 && bdir.coolingRate < 1.0))
        complain("bdirCoolingRate must lie in (0, 1)" +
                 gotValue(bdir.coolingRate));
    if (bdir.maxIterations < 0)
        complain("BDIR maxIterations must be >= 0");
    if (portfolio_ < 1 || portfolio_ > 64)
        complain("portfolio candidates must lie in [1, 64] (got " +
                 std::to_string(portfolio_) + ")");
    if (window_ < 0)
        complain("window must be >= 0 (got " +
                 std::to_string(window_) + "); 0 disables windowing");
    if (noise_) {
        const auto model = buildNoiseModel(*noise_);
        if (!model.ok())
            complain(model.status().message());
    }

    if (count > 0)
        return Status::invalidConfig(problems.str());
    return Status::okStatus();
}

Expected<DcMbqcConfig>
CompileOptions::build(std::vector<std::string> *normalizations) const
{
    Status status = validate();
    if (!status.ok())
        return status;

    DcMbqcConfig config = config_;
    if (config.partition.k != config.numQpus && normalizations) {
        normalizations->push_back(
            "partition.k (" + std::to_string(config.partition.k) +
            ") normalized to numQpus (" +
            std::to_string(config.numQpus) +
            "): the partitioner produces one part per QPU");
    }
    config.partition.k = config.numQpus;
    return config;
}

SingleQpuConfig
CompileOptions::baselineConfig() const
{
    SingleQpuConfig config;
    config.grid = config_.grid;
    config.order = config_.order;
    return config;
}

} // namespace dcmbqc

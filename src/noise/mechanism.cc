#include "noise/mechanism.hh"

#include <algorithm>
#include <cmath>
#include <mutex>

#include "photonic/loss_model.hh"

namespace dcmbqc
{

namespace
{

/**
 * The delay-line loss parameters, checked for `mechanism`. Here and
 * in every validate() below, each check is written so that NaN fails
 * it, and names the parameter and the rejected value.
 */
Status
checkLossModel(const std::string &mechanism, const LossModel &model)
{
    if (!(std::isfinite(model.attenuationDbPerKm) &&
          model.attenuationDbPerKm >= 0.0))
        return Status::invalidConfig(
            mechanism + ": attenuation_db_per_km must be finite and >= 0" +
            gotValue(model.attenuationDbPerKm));
    if (!(std::isfinite(model.cyclePeriodNs) && model.cyclePeriodNs > 0.0))
        return Status::invalidConfig(
            mechanism + ": cycle_period_ns must be finite and positive" +
            gotValue(model.cyclePeriodNs));
    if (!(model.speedFraction > 0.0 && model.speedFraction <= 1.0))
        return Status::invalidConfig(
            mechanism + ": speed_fraction must lie in (0, 1]" +
            gotValue(model.speedFraction));
    return Status::okStatus();
}

/**
 * Shared parameter-table plumbing: concrete mechanisms declare their
 * parameters as (name, pointer) rows so params()/set() stay uniform
 * and a typoed config key is rejected with the accepted spelling
 * list.
 */
class TabledMechanism : public ErrorMechanism
{
  public:
    std::vector<NoiseParam>
    params() const override
    {
        std::vector<NoiseParam> out;
        out.reserve(table().size());
        for (const auto &row : table())
            out.push_back({row.first, *row.second});
        return out;
    }

    Status
    set(const std::string &param, double value) override
    {
        for (const auto &row : table()) {
            if (row.first == param) {
                *row.second = value;
                return Status::okStatus();
            }
        }
        std::string known;
        for (const auto &row : table()) {
            if (!known.empty())
                known += "|";
            known += row.first;
        }
        return Status::invalidConfig(
            std::string("mechanism '") + name() +
            "' has no parameter '" + param + "' (expected " + known +
            ")");
    }

  protected:
    using Row = std::pair<const char *, double *>;

    /** Parameter rows, in the stable serialization order. */
    virtual const std::vector<Row> &table() const = 0;
};

/** Loss while a photon sits in its intra-QPU delay line (Fig. 1). */
class DelayLineMechanism final : public TabledMechanism
{
  public:
    DelayLineMechanism()
        : rows_{{"attenuation_db_per_km", &model_.attenuationDbPerKm},
                {"cycle_period_ns", &model_.cyclePeriodNs},
                {"speed_fraction", &model_.speedFraction}}
    {
    }

    const char *name() const override { return "delay-line"; }

    double
    siteSurvival(const NoiseSite &site) const override
    {
        return model_.survivalProbability(site.storageCycles);
    }

    bool
    vacuous() const override
    {
        return model_.attenuationDbPerKm == 0.0;
    }

    Status
    validate() const override
    {
        return checkLossModel(name(), model_);
    }

    const LossModel &lossModel() const { return model_; }

  protected:
    const std::vector<Row> &table() const override { return rows_; }

  private:
    LossModel model_;
    std::vector<Row> rows_;
};

/**
 * Loss on the connector path of a cut edge: a fixed insertion loss
 * per connector photon plus delay-line attenuation over the photon's
 * wait for its connection layer (the tau_remote storage that
 * `delay-line` does not charge).
 */
class ConnectorMechanism final : public TabledMechanism
{
  public:
    ConnectorMechanism()
        : rows_{{"insertion_loss_db", &insertionLossDb_},
                {"attenuation_db_per_km", &model_.attenuationDbPerKm},
                {"cycle_period_ns", &model_.cyclePeriodNs},
                {"speed_fraction", &model_.speedFraction}}
    {
    }

    const char *name() const override { return "connector"; }

    double
    siteSurvival(const NoiseSite &site) const override
    {
        if (!site.connector)
            return 1.0;
        const double insertion =
            std::pow(10.0, -insertionLossDb_ / 10.0);
        return insertion *
            model_.survivalProbability(site.remoteStorageCycles);
    }

    bool
    vacuous() const override
    {
        return insertionLossDb_ == 0.0 &&
            model_.attenuationDbPerKm == 0.0;
    }

    Status
    validate() const override
    {
        if (!(std::isfinite(insertionLossDb_) && insertionLossDb_ >= 0.0))
            return Status::invalidConfig(
                "connector: insertion_loss_db must be finite and >= 0" +
                gotValue(insertionLossDb_));
        return checkLossModel(name(), model_);
    }

  protected:
    const std::vector<Row> &table() const override { return rows_; }

  private:
    /** Typical mated-pair fiber connector insertion loss. */
    double insertionLossDb_ = 0.25;
    LossModel model_;
    std::vector<Row> rows_;
};

/**
 * Heralded fusion failure. Defaults to the experimental rate the
 * paper quotes ([27]); charged per connector fusion by default
 * (remote_only > 0.5), or per fusion attempt when remote_only = 0.
 */
class FusionMechanism final : public TabledMechanism
{
  public:
    FusionMechanism()
        : rows_{{"failure_rate", &failureRate_},
                {"remote_only", &remoteOnly_}}
    {
    }

    const char *name() const override { return "fusion"; }

    double
    edgeSurvival(const NoiseEdge &edge) const override
    {
        if (remoteOnly_ > 0.5 && !edge.remote)
            return 1.0;
        return 1.0 - failureRate_;
    }

    bool vacuous() const override { return failureRate_ == 0.0; }

    Status
    validate() const override
    {
        if (!(failureRate_ >= 0.0 && failureRate_ < 1.0))
            return Status::invalidConfig(
                "fusion: failure_rate must lie in [0, 1)" +
                gotValue(failureRate_));
        if (!std::isfinite(remoteOnly_))
            return Status::invalidConfig(
                "fusion: remote_only must be finite" +
                gotValue(remoteOnly_));
        return Status::okStatus();
    }

  protected:
    const std::vector<Row> &table() const override { return rows_; }

  private:
    double failureRate_ = experimentalFusionFailureRate;
    double remoteOnly_ = 1.0;
    std::vector<Row> rows_;
};

/**
 * Correlated loss bursts: with probability burst_rate per shot, a
 * window of burst_width consecutive photons (by node id, the photon
 * generation order) is lost together — the failure mode of a
 * resource-state generator glitch. The analytic per-site factor is
 * the marginal probability of sitting inside the burst window.
 */
class CorrelatedBurstMechanism final : public TabledMechanism
{
  public:
    CorrelatedBurstMechanism()
        : rows_{{"burst_rate", &burstRate_},
                {"burst_width", &burstWidth_}}
    {
    }

    const char *name() const override { return "correlated-burst"; }

    double
    siteSurvival(const NoiseSite &site) const override
    {
        if (vacuous() || site.totalSites <= 0)
            return 1.0;
        const double width =
            std::min(burstWidth_, static_cast<double>(site.totalSites));
        return 1.0 - burstRate_ * width / site.totalSites;
    }

    void
    sampleCorrelated(const std::vector<NoiseSite> &sites, Rng &rng,
                     std::vector<char> &lost) const override
    {
        if (vacuous() || sites.empty())
            return;
        // Fixed draw order (burst? then start) regardless of the
        // outcome, so shot streams are reproducible.
        const bool burst = rng.bernoulli(burstRate_);
        const std::size_t start = static_cast<std::size_t>(
            rng.uniformInt(static_cast<std::uint64_t>(sites.size())));
        if (!burst)
            return;
        const std::size_t width = static_cast<std::size_t>(
            std::max(1.0, burstWidth_));
        const std::size_t end = std::min(sites.size(), start + width);
        for (std::size_t u = start; u < end; ++u)
            lost[u] = 1;
    }

    bool correlated() const override { return true; }

    bool
    vacuous() const override
    {
        return burstRate_ == 0.0 || burstWidth_ < 1.0;
    }

    Status
    validate() const override
    {
        if (!(burstRate_ >= 0.0 && burstRate_ <= 1.0))
            return Status::invalidConfig(
                "correlated-burst: burst_rate must lie in [0, 1]" +
                gotValue(burstRate_));
        if (!(std::isfinite(burstWidth_) && burstWidth_ >= 0.0))
            return Status::invalidConfig(
                "correlated-burst: burst_width must be finite and >= 0" +
                gotValue(burstWidth_));
        return Status::okStatus();
    }

  protected:
    const std::vector<Row> &table() const override { return rows_; }

  private:
    double burstRate_ = 0.0;
    double burstWidth_ = 8.0;
    std::vector<Row> rows_;
};

/**
 * Depolarizing gate noise, reduced to its measurable effect on an
 * MBQC output: each measured output wire's outcome flips with
 * `probability`. Consumed by the simulator backends; it does not
 * lose photons, so the loss backend and the compiler's survival
 * budget ignore it.
 */
class DepolarizingMechanism final : public TabledMechanism
{
  public:
    DepolarizingMechanism() : rows_{{"probability", &probability_}} {}

    const char *name() const override { return "depolarizing"; }

    double flipProbability() const override { return probability_; }

    bool vacuous() const override { return probability_ == 0.0; }

    Status
    validate() const override
    {
        if (!(probability_ >= 0.0 && probability_ <= 0.5))
            return Status::invalidConfig(
                "depolarizing: probability must lie in [0, 0.5]" +
                gotValue(probability_));
        return Status::okStatus();
    }

  protected:
    const std::vector<Row> &table() const override { return rows_; }

  private:
    double probability_ = 0.0;
    std::vector<Row> rows_;
};

struct RegistryEntry
{
    std::string name;
    NoiseMechanismFactory factory;
};

std::mutex &
registryMutex()
{
    static std::mutex mutex;
    return mutex;
}

/** Built-ins registered on first access, in documented order. */
std::vector<RegistryEntry> &
registry()
{
    static std::vector<RegistryEntry> entries = [] {
        std::vector<RegistryEntry> list;
        list.push_back({"delay-line", [] {
            return std::unique_ptr<ErrorMechanism>(
                std::make_unique<DelayLineMechanism>());
        }});
        list.push_back({"connector", [] {
            return std::unique_ptr<ErrorMechanism>(
                std::make_unique<ConnectorMechanism>());
        }});
        list.push_back({"fusion", [] {
            return std::unique_ptr<ErrorMechanism>(
                std::make_unique<FusionMechanism>());
        }});
        list.push_back({"correlated-burst", [] {
            return std::unique_ptr<ErrorMechanism>(
                std::make_unique<CorrelatedBurstMechanism>());
        }});
        list.push_back({"depolarizing", [] {
            return std::unique_ptr<ErrorMechanism>(
                std::make_unique<DepolarizingMechanism>());
        }});
        return list;
    }();
    return entries;
}

} // namespace

std::unique_ptr<ErrorMechanism>
makeNoiseMechanism(const std::string &name)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    for (const auto &entry : registry())
        if (entry.name == name)
            return entry.factory();
    return nullptr;
}

bool
isKnownNoiseMechanism(const std::string &name)
{
    std::lock_guard<std::mutex> lock(registryMutex());
    for (const auto &entry : registry())
        if (entry.name == name)
            return true;
    return false;
}

std::vector<std::string>
noiseMechanismNames()
{
    std::lock_guard<std::mutex> lock(registryMutex());
    std::vector<std::string> names;
    names.reserve(registry().size());
    for (const auto &entry : registry())
        names.push_back(entry.name);
    return names;
}

Status
registerNoiseMechanism(const std::string &name,
                       NoiseMechanismFactory factory)
{
    if (name.empty())
        return Status::invalidArgument(
            "registerNoiseMechanism: empty name");
    if (!factory)
        return Status::invalidArgument(
            "registerNoiseMechanism: null factory");
    std::lock_guard<std::mutex> lock(registryMutex());
    for (const auto &entry : registry())
        if (entry.name == name)
            return Status::failedPrecondition(
                "noise mechanism '" + name + "' already registered");
    registry().push_back({name, std::move(factory)});
    return Status::okStatus();
}

bool
operator==(const NoiseParam &a, const NoiseParam &b)
{
    return a.name == b.name && a.value == b.value;
}

bool
operator==(const MechanismSpec &a, const MechanismSpec &b)
{
    return a.mechanism == b.mechanism && a.params == b.params;
}

bool
operator==(const NoiseConfig &a, const NoiseConfig &b)
{
    return a.mechanisms == b.mechanisms;
}

} // namespace dcmbqc

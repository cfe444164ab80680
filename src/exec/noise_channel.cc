#include "exec/noise_channel.hh"

#include <algorithm>

#include "exec/backend.hh"

namespace dcmbqc
{

NoiseChannel::NoiseChannel(NoiseModel model, NoiseExposure exposure)
    : model_(std::move(model)),
      analysis_(analyzeNoise(exposure, model_)),
      sites_(std::move(exposure.sites)),
      flip_(model_.flipProbability()),
      correlated_(model_.hasCorrelated())
{
    const auto positive = [](double p) { return p > 0.0; };
    canLose_ = correlated_ ||
        std::any_of(analysis_.siteLoss.begin(), analysis_.siteLoss.end(),
                    positive) ||
        std::any_of(analysis_.edgeLoss.begin(), analysis_.edgeLoss.end(),
                    positive);
}

Expected<std::unique_ptr<NoiseChannel>>
NoiseChannel::make(const ExecOptions &options,
                   const std::function<NoiseExposure()> &expose)
{
    if (!options.noise)
        return std::unique_ptr<NoiseChannel>();
    auto model = buildNoiseModel(*options.noise);
    if (!model.ok())
        return model.status();
    if (model->vacuous())
        return std::unique_ptr<NoiseChannel>();
    return std::make_unique<NoiseChannel>(std::move(model.value()),
                                          expose());
}

int
NoiseChannel::sampleLoss(Rng &rng) const
{
    if (!canLose_)
        return 0;
    // A burst can hit a photon the independent draws already lost;
    // the mask keeps the count honest. One buffer per worker thread:
    // assign() recycles its capacity, so the shot loop allocates
    // nothing after warm-up.
    thread_local std::vector<char> lost;
    const std::vector<double> &site_loss = analysis_.siteLoss;
    lost.assign(site_loss.size(), 0);
    for (std::size_t u = 0; u < site_loss.size(); ++u)
        lost[u] = rng.bernoulli(site_loss[u]);
    if (correlated_)
        model_.sampleCorrelated(sites_, rng, lost);
    int count = static_cast<int>(
        std::count(lost.begin(), lost.end(), char(1)));
    for (const double p : analysis_.edgeLoss)
        count += rng.bernoulli(p);
    return count;
}

int
NoiseChannel::sampleShot(std::int64_t seed, int shot,
                         std::string &bits) const
{
    Rng rng(shotSeed(seed, shot) ^ kNoiseStreamSalt);
    const int lost = sampleLoss(rng);
    if (lost == 0 && flip_ > 0.0)
        for (char &bit : bits)
            if (rng.bernoulli(flip_))
                bit = bit == '0' ? '1' : '0';
    return lost;
}

const NoiseChannel *
drawingChannel(const std::unique_ptr<NoiseChannel> &channel)
{
    return channel && channel->drawsNoise() ? channel.get() : nullptr;
}

NoiseExposure
patternExposure(NodeId num_nodes)
{
    NoiseExposure exposure;
    exposure.sites.assign(num_nodes, NoiseSite{});
    for (NoiseSite &site : exposure.sites)
        site.totalSites = static_cast<int>(num_nodes);
    return exposure;
}

} // namespace dcmbqc

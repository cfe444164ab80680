#include "partition/adaptive.hh"

#include <algorithm>
#include <cmath>

#include "common/logging.hh"
#include "noise/analysis.hh"
#include "partition/modularity.hh"
#include "partition/multilevel.hh"

namespace dcmbqc
{

AdaptiveResult
adaptivePartition(const Graph &g, const AdaptiveConfig &config,
                  const NoiseModel *noise)
{
    DCMBQC_ASSERT(config.k >= 1, "adaptivePartition: k >= 1 required");
    DCMBQC_ASSERT(config.gamma > 1.0, "gamma must exceed 1");

    AdaptiveResult result;
    result.best = Partitioning(g.numNodes(), config.k);

    double alpha = 1.0;
    double q_best = -1.0;
    // Selection score of the best candidate so far: modularity when
    // noise-blind, static log survival when noise-aware. The alpha
    // adaptation below reads modularity deltas only, so the probe
    // trajectory — and with it the candidate set — is identical
    // either way.
    double score_best = noise ? -HUGE_VAL : -1.0;
    double previous_q = -1.0;

    MultilevelSearch search(g);
    for (int iter = 0; iter < config.maxIterations; ++iter) {
        MultilevelConfig ml;
        ml.k = config.k;
        ml.alpha = alpha;
        ml.seed = config.seed + static_cast<std::uint64_t>(iter) * 0x9e37;
        Partitioning p = search.partition(ml);
        const double q = modularity(g, p);
        ++result.probes;

        const double score =
            noise ? partitionLogSurvival(g, p, *noise) : q;
        if (score > score_best) {
            score_best = score;
            q_best = q;
            result.best = p;
            result.alphaAtBest = alpha;
            if (noise)
                result.noiseLogSurvival = score;
        }

        const double delta_q = q - previous_q;
        previous_q = q;

        if (delta_q > config.epsilonQ && alpha < config.alphaMax) {
            alpha = std::min(alpha * config.gamma, config.alphaMax);
        } else if (delta_q < -config.epsilonQ) {
            alpha = std::max(alpha / config.gamma, 1.0);
            // Revisiting a lower alpha with the same seed schedule
            // still counts toward the iteration budget; stop once we
            // bounce at the floor.
            if (alpha <= 1.0)
                break;
        } else {
            break;
        }
    }

    result.modularity = q_best;
    result.cutEdges = result.best.numCutEdges(g);
    return result;
}

} // namespace dcmbqc

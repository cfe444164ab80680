#include "core/lifetime.hh"

#include <cstdlib>

#include "common/logging.hh"

namespace dcmbqc
{

std::vector<int>
measureeWaits(const Digraph &deps, const std::vector<TimeSlot> &node_time,
              const std::vector<NodeId> *order)
{
    DCMBQC_ASSERT(static_cast<NodeId>(node_time.size()) ==
                      deps.numNodes(),
                  "node_time size mismatch");
    std::vector<NodeId> sorted;
    if (!order) {
        const bool acyclic = deps.topologicalSort(sorted);
        DCMBQC_ASSERT(acyclic, "dependency graph must be acyclic");
        order = &sorted;
    }
    DCMBQC_ASSERT(order->size() == node_time.size(),
                  "order does not cover the dependency graph");

    // MTime[u]: earliest time the measurement of u can be performed.
    // A photon reaches its measurement device one cycle after
    // generation, and basis computation takes one cycle per hop.
    std::vector<TimeSlot> mtime(node_time.size());
    std::vector<int> waits(node_time.size());
    for (NodeId u : *order) {
        TimeSlot t = node_time[u] + 1;
        for (NodeId v : deps.predecessors(u))
            t = std::max(t, mtime[v] + 1);
        mtime[u] = t;
        waits[u] = static_cast<int>(t - node_time[u]);
    }
    return waits;
}

LifetimeBreakdown
computeLifetime(const Graph &fusee_edges, const Digraph &deps,
                const std::vector<TimeSlot> &node_time)
{
    LifetimeBreakdown result;

    // Part 1: fusee lifetime.
    for (const auto &e : fusee_edges.edges()) {
        const int span =
            std::abs(node_time[e.u] - node_time[e.v]);
        result.tauFusee = std::max(result.tauFusee, span);
    }

    // Part 2: measuree lifetime.
    for (int w : measureeWaits(deps, node_time))
        result.tauMeasuree = std::max(result.tauMeasuree, w);

    return result;
}

} // namespace dcmbqc

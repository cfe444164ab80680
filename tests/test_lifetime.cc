/**
 * @file
 * Tests for Algorithm 1 (required photon lifetime): hand-computed
 * instances, the removee exemption, and a brute-force cross-check on
 * random instances.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <functional>
#include <set>

#include "common/rng.hh"
#include "core/lifetime.hh"

namespace dcmbqc
{
namespace
{

TEST(Lifetime, FuseeSpanOnly)
{
    // Two nodes fused across 5 layers, no dependencies.
    const Graph g(2, {{0, 1}});
    Digraph deps(2);
    const auto r = computeLifetime(g, deps, {0, 5});
    EXPECT_EQ(r.tauFusee, 5);
    // Even without parents a measuree waits 1 cycle (device travel).
    EXPECT_EQ(r.tauMeasuree, 1);
    EXPECT_EQ(r.tauPhoton(), 5);
}

TEST(Lifetime, MeasureeChain)
{
    // Chain 0 -> 1 -> 2, all generated on layer 0:
    // MTime = 1, 2, 3; waits = 1, 2, 3.
    Graph g(3);
    const Digraph deps(3, {{0, 1}, {1, 2}});
    const auto r = computeLifetime(g, deps, {0, 0, 0});
    EXPECT_EQ(r.tauMeasuree, 3);
    EXPECT_EQ(r.tauFusee, 0);
    EXPECT_EQ(r.tauPhoton(), 3);
}

TEST(Lifetime, LaterLayersAbsorbWaits)
{
    // Same chain but each node a layer later: MTime[u] = t_u + 1,
    // every wait is 1.
    Graph g(3);
    const Digraph deps(3, {{0, 1}, {1, 2}});
    const auto r = computeLifetime(g, deps, {0, 1, 2});
    EXPECT_EQ(r.tauMeasuree, 1);
}

TEST(Lifetime, MTimeRecurrenceWithMultipleParents)
{
    // Node 3 depends on 0 (layer 0) and 2 (layer 4).
    // MTime: 0->1, 2->5; node 3 at layer 1:
    // MTime[3] = max(1+1, 5+1, 1+1) = 6, wait = 5.
    Graph g(4);
    const Digraph deps(4, {{0, 3}, {2, 3}});
    const auto r = computeLifetime(g, deps, {0, 0, 4, 1});
    EXPECT_EQ(r.tauMeasuree, 5);
    const auto waits = measureeWaits(deps, {0, 0, 4, 1});
    EXPECT_EQ(waits[3], 5);
    EXPECT_EQ(waits[0], 1);
}

TEST(Lifetime, PaperAlgorithmPart1IsMaxAbsSpan)
{
    const Graph g(4, {{0, 1}, {1, 2}, {2, 3}});
    Digraph deps(4);
    const auto r = computeLifetime(g, deps, {7, 3, 9, 9});
    EXPECT_EQ(r.tauFusee, 6); // |3 - 9|
}

TEST(Lifetime, RemoveesContributeNothing)
{
    // A removee is just absent from both the fusee graph and deps:
    // the metric only charges what is passed in.
    const Graph g(3, {{0, 1}});
    Digraph deps(3);
    const auto with_far_removee = computeLifetime(g, deps, {0, 1, 999});
    EXPECT_EQ(with_far_removee.tauFusee, 1);
}

TEST(Lifetime, BruteForceCrossCheck)
{
    // Random DAG + random layers; compare against an independent
    // recursive implementation.
    Rng rng(42);
    for (int trial = 0; trial < 20; ++trial) {
        const int n = 30;
        std::vector<Edge> edges;
        std::set<std::pair<NodeId, NodeId>> seen;
        std::vector<Arc> arcs;
        std::vector<TimeSlot> time(n);
        for (int u = 0; u < n; ++u)
            time[u] = static_cast<TimeSlot>(rng.uniformInt(40));
        for (int e = 0; e < 50; ++e) {
            NodeId u = static_cast<NodeId>(rng.uniformInt(n));
            NodeId v = static_cast<NodeId>(rng.uniformInt(n));
            if (u == v)
                continue;
            if (seen.insert(std::minmax(u, v)).second)
                edges.push_back({u, v});
            if (u < v && rng.bernoulli(0.5))
                arcs.push_back({u, v}); // u<v keeps it acyclic
        }
        const Graph g(n, std::move(edges));
        const Digraph deps(n, arcs);

        // Reference: recursive MTime.
        std::vector<int> memo(n, -1);
        std::function<int(NodeId)> mtime = [&](NodeId u) {
            if (memo[u] >= 0)
                return memo[u];
            int t = time[u] + 1;
            for (NodeId p : deps.predecessors(u))
                t = std::max(t, mtime(p) + 1);
            return memo[u] = t;
        };
        int tau_measuree = 0;
        for (NodeId u = 0; u < n; ++u)
            tau_measuree = std::max(tau_measuree, mtime(u) - time[u]);
        int tau_fusee = 0;
        for (const auto &e : g.edges())
            tau_fusee = std::max(
                tau_fusee, std::abs(time[e.u] - time[e.v]));

        const auto r = computeLifetime(g, deps, time);
        EXPECT_EQ(r.tauFusee, tau_fusee) << trial;
        EXPECT_EQ(r.tauMeasuree, tau_measuree) << trial;
        EXPECT_EQ(r.tauPhoton(),
                  std::max(tau_fusee, tau_measuree));
    }
}

} // namespace
} // namespace dcmbqc

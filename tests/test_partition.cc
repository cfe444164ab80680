/**
 * @file
 * Tests for the partitioning substrate: cut/imbalance metrics,
 * modularity, the multilevel k-way partitioner, and Algorithm 2
 * (adaptive graph partitioning).
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "partition/adaptive.hh"
#include "partition/modularity.hh"
#include "partition/multilevel.hh"
#include "partition/partitioning.hh"

namespace dcmbqc
{
namespace
{

/** k dense cliques of size m, connected in a ring by single edges. */
Graph
cliqueRing(int k, int m)
{
    Graph g(k * m);
    for (int c = 0; c < k; ++c) {
        const int base = c * m;
        for (int i = 0; i < m; ++i)
            for (int j = i + 1; j < m; ++j)
                g.addEdge(base + i, base + j);
        const int next = ((c + 1) % k) * m;
        g.addEdge(base, next);
    }
    return g;
}

Graph
randomGraph(int n, int edges, std::uint64_t seed)
{
    Graph g(n);
    Rng rng(seed);
    int added = 0;
    while (added < edges) {
        const NodeId u = static_cast<NodeId>(rng.uniformInt(n));
        const NodeId v = static_cast<NodeId>(rng.uniformInt(n));
        if (u == v || g.hasEdge(u, v))
            continue;
        g.addEdge(u, v);
        ++added;
    }
    return g;
}

TEST(Partitioning, CutAndWeights)
{
    Graph g(4);
    g.addEdge(0, 1, 2);
    g.addEdge(1, 2, 3);
    g.addEdge(2, 3, 4);
    Partitioning p({0, 0, 1, 1}, 2);
    EXPECT_EQ(p.cutWeight(g), 3);
    EXPECT_EQ(p.numCutEdges(g), 1);
    const auto w = p.partWeights(g);
    EXPECT_EQ(w[0], 2);
    EXPECT_EQ(w[1], 2);
    EXPECT_DOUBLE_EQ(p.imbalance(g), 1.0);
}

TEST(Partitioning, ImbalanceDetectsSkew)
{
    Graph g(4);
    Partitioning p({0, 0, 0, 1}, 2);
    EXPECT_DOUBLE_EQ(p.imbalance(g), 1.5);
}

TEST(Partitioning, PartMembersOrdered)
{
    Partitioning p({1, 0, 1, 0}, 2);
    const auto members = p.partMembers();
    EXPECT_EQ(members[0], (std::vector<NodeId>{1, 3}));
    EXPECT_EQ(members[1], (std::vector<NodeId>{0, 2}));
}

TEST(Modularity, PerfectCommunitiesScoreHigh)
{
    const Graph g = cliqueRing(4, 6);
    std::vector<int> assign(g.numNodes());
    for (NodeId u = 0; u < g.numNodes(); ++u)
        assign[u] = u / 6;
    const double q_good = modularity(g, Partitioning(assign, 4));
    const double q_single =
        modularity(g, Partitioning(g.numNodes(), 1));
    EXPECT_GT(q_good, 0.6);
    EXPECT_NEAR(q_single, 0.0, 1e-9);
}

TEST(Modularity, EmptyGraphIsZero)
{
    Graph g(3);
    EXPECT_DOUBLE_EQ(modularity(g, Partitioning(3, 2)), 0.0);
}

TEST(Multilevel, BalancedBisection)
{
    const Graph g = cliqueRing(2, 20);
    MultilevelConfig cfg;
    cfg.k = 2;
    cfg.alpha = 1.0;
    const auto p = MultilevelPartitioner(cfg).partition(g);
    EXPECT_EQ(p.numParts(), 2);
    // Perfect split: one clique per part, cut = 2 ring edges.
    EXPECT_LE(p.cutWeight(g), 4);
    EXPECT_LE(p.imbalance(g), 1.1);
}

TEST(Multilevel, FourWayOnCliqueRing)
{
    const Graph g = cliqueRing(4, 16);
    MultilevelConfig cfg;
    cfg.k = 4;
    const auto p = MultilevelPartitioner(cfg).partition(g);
    EXPECT_LE(p.imbalance(g), 1.15);
    EXPECT_LE(p.cutWeight(g), 10);
}

TEST(Multilevel, RespectsBalanceOnRandomGraph)
{
    const Graph g = randomGraph(300, 900, 21);
    for (int k : {2, 4, 8}) {
        MultilevelConfig cfg;
        cfg.k = k;
        cfg.alpha = 1.0;
        const auto p = MultilevelPartitioner(cfg).partition(g);
        // One max-weight node of slack is tolerated by design.
        EXPECT_LE(p.imbalance(g), 1.0 + (1.0 * k) / 300 + 0.05)
            << "k=" << k;
    }
}

TEST(Multilevel, CutBeatsRandomAssignment)
{
    const Graph g = cliqueRing(8, 12);
    MultilevelConfig cfg;
    cfg.k = 8;
    const auto p = MultilevelPartitioner(cfg).partition(g);

    Rng rng(5);
    std::vector<int> random_assign(g.numNodes());
    for (auto &a : random_assign)
        a = static_cast<int>(rng.uniformInt(8));
    const auto cut_random =
        Partitioning(random_assign, 8).cutWeight(g);
    EXPECT_LT(p.cutWeight(g), cut_random / 2);
}

TEST(Multilevel, SinglePartTrivial)
{
    const Graph g = cliqueRing(2, 5);
    MultilevelConfig cfg;
    cfg.k = 1;
    const auto p = MultilevelPartitioner(cfg).partition(g);
    EXPECT_EQ(p.cutWeight(g), 0);
}

TEST(Multilevel, DeterministicForSeed)
{
    const Graph g = randomGraph(200, 600, 33);
    MultilevelConfig cfg;
    cfg.k = 4;
    cfg.seed = 99;
    const auto a = MultilevelPartitioner(cfg).partition(g);
    const auto b = MultilevelPartitioner(cfg).partition(g);
    EXPECT_EQ(a.assignment(), b.assignment());
}

TEST(RefineBoundary, ImprovesBadPartition)
{
    const Graph g = cliqueRing(2, 10);
    // Start from a deliberately bad split (alternating).
    std::vector<int> assign(g.numNodes());
    for (NodeId u = 0; u < g.numNodes(); ++u)
        assign[u] = u % 2;
    Partitioning p(assign, 2);
    const auto before = p.cutWeight(g);
    for (int i = 0; i < 8; ++i)
        refineBoundaryPass(g, p, 11);
    EXPECT_LT(p.cutWeight(g), before);
}

TEST(Adaptive, FindsCommunityAlignedPartition)
{
    const Graph g = cliqueRing(4, 12);
    AdaptiveConfig cfg;
    cfg.k = 4;
    const auto result = adaptivePartition(g, cfg);
    EXPECT_GT(result.modularity, 0.55);
    EXPECT_LE(result.best.imbalance(g), cfg.alphaMax + 0.1);
    EXPECT_GE(result.probes, 1);
    EXPECT_EQ(result.cutEdges, result.best.numCutEdges(g));
}

TEST(Adaptive, RespectsAlphaMax)
{
    const Graph g = randomGraph(200, 700, 55);
    AdaptiveConfig cfg;
    cfg.k = 4;
    cfg.alphaMax = 1.5;
    const auto result = adaptivePartition(g, cfg);
    EXPECT_LE(result.alphaAtBest, 1.5 + 1e-9);
    // Slack: one max-weight node as in the multilevel contract.
    EXPECT_LE(result.best.imbalance(g), 1.5 + 4.0 * 4 / 200);
}

TEST(Adaptive, TerminatesOnStagnation)
{
    const Graph g = cliqueRing(2, 8);
    AdaptiveConfig cfg;
    cfg.k = 2;
    cfg.maxIterations = 64;
    const auto result = adaptivePartition(g, cfg);
    EXPECT_LT(result.probes, 64);
}

} // namespace
} // namespace dcmbqc

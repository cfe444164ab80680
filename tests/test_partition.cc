/**
 * @file
 * Tests for the partitioning substrate: cut/imbalance metrics,
 * modularity, the multilevel k-way partitioner, and Algorithm 2
 * (adaptive graph partitioning). The pins at the end fix the exact
 * partitions of graphs large enough to coarsen, so a rewrite of the
 * partitioner's internals cannot move artifact bytes unnoticed.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstring>
#include <set>

#include "circuit/generators.hh"
#include "common/rng.hh"
#include "mbqc/pattern_builder.hh"
#include "partition/adaptive.hh"
#include "partition/modularity.hh"
#include "partition/multilevel.hh"
#include "partition/partitioning.hh"
#include "serialize/binary.hh"

namespace dcmbqc
{
namespace
{

/** k dense cliques of size m, connected in a ring by single edges. */
Graph
cliqueRing(int k, int m)
{
    std::vector<Edge> edges;
    for (int c = 0; c < k; ++c) {
        const int base = c * m;
        for (int i = 0; i < m; ++i)
            for (int j = i + 1; j < m; ++j)
                edges.push_back({base + i, base + j});
        const int next = ((c + 1) % k) * m;
        edges.push_back({base, next});
    }
    return Graph(k * m, std::move(edges));
}

Graph
randomGraph(int n, int num_edges, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Edge> edges;
    std::set<std::pair<NodeId, NodeId>> seen;
    while (static_cast<int>(edges.size()) < num_edges) {
        const NodeId u = static_cast<NodeId>(rng.uniformInt(n));
        const NodeId v = static_cast<NodeId>(rng.uniformInt(n));
        if (u != v && seen.insert(std::minmax(u, v)).second)
            edges.push_back({u, v});
    }
    return Graph(n, std::move(edges));
}

TEST(Partitioning, CutAndWeights)
{
    Graph g(4, {{0, 1, 2}, {1, 2, 3}, {2, 3, 4}});
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
    const auto p = MultilevelSearch(g).partition(cfg);
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
    const auto p = MultilevelSearch(g).partition(cfg);
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
        const auto p = MultilevelSearch(g).partition(cfg);
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
    const auto p = MultilevelSearch(g).partition(cfg);

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
    const auto p = MultilevelSearch(g).partition(cfg);
    EXPECT_EQ(p.cutWeight(g), 0);
}

TEST(Multilevel, DeterministicForSeed)
{
    const Graph g = randomGraph(200, 600, 33);
    MultilevelConfig cfg;
    cfg.k = 4;
    cfg.seed = 99;
    const auto a = MultilevelSearch(g).partition(cfg);
    const auto b = MultilevelSearch(g).partition(cfg);
    EXPECT_EQ(a.assignment(), b.assignment());
}

TEST(Multilevel, HugeAlphaGivesTheAlphaKPartition)
{
    // Every alpha >= k lets one part hold the whole graph, so the
    // cap stops mattering; 1e300 must not overflow it either.
    const Graph g = buildPattern(makeQft(36)).graph();
    MultilevelConfig cfg;
    cfg.k = 4;
    cfg.alpha = 4.0;
    const auto at_k = MultilevelSearch(g).partition(cfg);
    cfg.alpha = 1e300;
    const auto huge = MultilevelSearch(g).partition(cfg);
    EXPECT_EQ(huge.assignment(), at_k.assignment());
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

/** FNV-1a of the assignment's in-memory `int` values. */
std::uint64_t
assignmentHash(const Partitioning &p)
{
    return fnv1a64(
        reinterpret_cast<const std::uint8_t *>(p.assignment().data()),
        p.assignment().size() * sizeof(int));
}

std::uint64_t
bitsOf(double x)
{
    std::uint64_t bits;
    std::memcpy(&bits, &x, sizeof(bits));
    return bits;
}

/**
 * randomGraph with node weights in [1, 4] and edge weights in
 * [1, 5], so coarsening merges weights and matching breaks ties on
 * combined node weight.
 */
Graph
weightedRandomGraph()
{
    const Graph plain = randomGraph(600, 1800, 77);
    Rng rng(78);
    std::vector<int> node_weights(plain.numNodes());
    for (int &w : node_weights)
        w = 1 + static_cast<int>(rng.uniformInt(4));
    std::vector<Edge> edges = plain.edges();
    for (Edge &e : edges)
        e.weight = 1 + static_cast<int>(rng.uniformInt(5));
    return Graph(std::move(node_weights), std::move(edges));
}

/** The exact outcome of one adaptive search. */
struct AdaptivePin
{
    const char *name;
    int k;
    std::uint64_t assignmentHash;
    int probes;
    int cutEdges;
    double alphaAtBest;
    std::uint64_t modularityBits;
};

void
expectAdaptivePin(const Graph &g, const AdaptivePin &pin)
{
    SCOPED_TRACE(pin.name);
    AdaptiveConfig cfg;
    cfg.k = pin.k;
    const AdaptiveResult r = adaptivePartition(g, cfg);
    EXPECT_EQ(assignmentHash(r.best), pin.assignmentHash);
    EXPECT_EQ(r.probes, pin.probes);
    EXPECT_EQ(r.cutEdges, pin.cutEdges);
    EXPECT_EQ(r.alphaAtBest, pin.alphaAtBest);
    EXPECT_EQ(bitsOf(r.modularity), pin.modularityBits);
}

TEST(PartitionPins, AdaptiveOnTableIIPatternGraphs)
{
    struct Program
    {
        Circuit circuit;
        AdaptivePin pin;
    };
    // VQE-36 on 8 parts runs the full 256-probe budget. The alphas
    // are 1.02 and 1.02 * 1.02 as the search computes them.
    const double gamma1 = 0x1.051eb851eb852p+0;
    const double gamma2 = 0x1.0a57a786c2268p+0;
    const Program programs[] = {
        {makeVqe(36),
         {"VQE-36/k8", 8, 0x747c6c0971b29305ull, 256, 237, gamma2,
          0x3fe8a57a4ca85bfcull}},
        {makeQaoaMaxcut(36, 7),
         {"QAOA-36/k8", 8, 0xb18de6fdb41100f4ull, 3, 187, gamma1,
          0x3fe9b5f60fae9c78ull}},
        {makeQft(36),
         {"QFT-36/k4", 4, 0x9886988d01ad3505ull, 2, 80, 1.0,
          0x3fe7a9a5bc98b622ull}},
        {makeRippleCarryAdder(100),
         {"RCA-100/k8", 8, 0xefdabbf2264c6c13ull, 2, 61, gamma1,
          0x3feb7f84a54be8afull}},
    };
    for (const Program &program : programs)
        expectAdaptivePin(buildPattern(program.circuit).graph(),
                          program.pin);
}

TEST(PartitionPins, AdaptiveOnWeightedRandomGraph)
{
    expectAdaptivePin(weightedRandomGraph(),
                      {"weighted random/k4", 4, 0x1b508b1efd6e20d6ull, 2,
                       786, 1.0, 0x3fd9064e4a255e84ull});
}

/** The exact outcome of one multilevel run without the slab. */
struct MultilevelPin
{
    double alpha;
    std::uint64_t seed;
    std::uint64_t assignmentHash;
    long long cutWeight;
};

void
expectMultilevelPin(const Graph &g, int k, const MultilevelPin &pin)
{
    SCOPED_TRACE("alpha " + std::to_string(pin.alpha) + ", seed " +
                 std::to_string(pin.seed));
    MultilevelConfig cfg;
    cfg.k = k;
    cfg.alpha = pin.alpha;
    cfg.seed = pin.seed;
    cfg.useSequentialCandidate = false;
    const Partitioning p = MultilevelSearch(g).partition(cfg);
    EXPECT_EQ(assignmentHash(p), pin.assignmentHash);
    EXPECT_EQ(p.cutWeight(g), pin.cutWeight);
}

TEST(PartitionPins, MultilevelOnQft36)
{
    // The slab wins both probes of QFT-36/k4's adaptive search, so
    // only these runs show the multilevel result on it. The seeds
    // are the first two probes' seeds.
    const Graph g = buildPattern(makeQft(36)).graph();
    const MultilevelPin pins[] = {
        {1.0, 1, 0x8b6dc5cb0a88d764ull, 153},
        {1.0, 1 + 0x9e37, 0x09d3524c3b84c8f7ull, 143},
        {1.0404, 1, 0x897d4646ea0984a4ull, 93},
        {1.0404, 1 + 0x9e37, 0x15461e6b34c0a527ull, 106},
    };
    for (const MultilevelPin &pin : pins)
        expectMultilevelPin(g, 4, pin);
}

TEST(PartitionPins, MultilevelOnWeightedRandomGraph)
{
    const Graph g = weightedRandomGraph();
    const MultilevelPin pins[] = {
        {1.0, 1, 0x1b508b1efd6e20d6ull, 1966},
        {1.0404, 1 + 0x9e37, 0xa8c6c9e0a9de8a06ull, 1866},
    };
    for (const MultilevelPin &pin : pins)
        expectMultilevelPin(g, 4, pin);
}

} // namespace
} // namespace dcmbqc

/**
 * @file
 * Unit tests for the graph substrate: Graph, Digraph, BFS, connected
 * components, RCM ordering, bandwidth and heavy-edge matching.
 */

#include <gtest/gtest.h>

#include <numeric>

#include "common/rng.hh"
#include "graph/algorithms.hh"
#include "graph/digraph.hh"
#include "graph/graph.hh"
#include "partition/multilevel.hh"

namespace dcmbqc
{
namespace
{

Graph
pathGraph(int n)
{
    Graph g(n);
    for (NodeId u = 0; u + 1 < n; ++u)
        g.addEdge(u, u + 1);
    return g;
}

Graph
gridGraph(int rows, int cols)
{
    Graph g(rows * cols);
    auto id = [&](int r, int c) { return r * cols + c; };
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c) {
            if (r + 1 < rows)
                g.addEdge(id(r, c), id(r + 1, c));
            if (c + 1 < cols)
                g.addEdge(id(r, c), id(r, c + 1));
        }
    return g;
}

TEST(Graph, AddNodesAndEdges)
{
    Graph g(3);
    EXPECT_EQ(g.numNodes(), 3);
    const auto e = g.addEdge(0, 1, 5);
    EXPECT_EQ(g.numEdges(), 1);
    EXPECT_EQ(g.edge(e).weight, 5);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0));
    EXPECT_FALSE(g.hasEdge(0, 2));
    EXPECT_EQ(g.degree(0), 1);
    EXPECT_EQ(g.degree(2), 0);
}

TEST(Graph, WeightsAndTotals)
{
    Graph g(3);
    g.setNodeWeight(0, 4);
    g.addEdge(0, 1, 2);
    g.addEdge(1, 2, 3);
    EXPECT_EQ(g.totalNodeWeight(), 4 + 1 + 1);
    EXPECT_EQ(g.totalEdgeWeight(), 5);
    EXPECT_EQ(g.maxDegree(), 2);
}

TEST(Graph, InducedSubgraph)
{
    Graph g = pathGraph(5);
    g.setNodeWeight(3, 7);
    std::vector<NodeId> map;
    const Graph sub = g.inducedSubgraph({1, 2, 3}, &map);
    EXPECT_EQ(sub.numNodes(), 3);
    EXPECT_EQ(sub.numEdges(), 2);
    EXPECT_TRUE(sub.hasEdge(0, 1));
    EXPECT_TRUE(sub.hasEdge(1, 2));
    EXPECT_EQ(sub.nodeWeight(2), 7);
    EXPECT_EQ(map[0], invalidNode);
    EXPECT_EQ(map[1], 0);
    EXPECT_EQ(map[4], invalidNode);
}

TEST(Digraph, TopologicalSortDag)
{
    Digraph d(4);
    d.addArc(0, 1);
    d.addArc(1, 2);
    d.addArc(0, 3);
    d.addArc(3, 2);
    std::vector<NodeId> order;
    EXPECT_TRUE(d.topologicalSort(order));
    std::vector<int> pos(4);
    for (int i = 0; i < 4; ++i)
        pos[order[i]] = i;
    EXPECT_LT(pos[0], pos[1]);
    EXPECT_LT(pos[1], pos[2]);
    EXPECT_LT(pos[3], pos[2]);
}

TEST(Digraph, DetectsCycle)
{
    Digraph d(3);
    d.addArc(0, 1);
    d.addArc(1, 2);
    d.addArc(2, 0);
    EXPECT_FALSE(d.isAcyclic());
}

TEST(Digraph, LongestPath)
{
    Digraph d(5);
    d.addArc(0, 1);
    d.addArc(1, 2);
    d.addArc(2, 3);
    d.addArc(0, 4);
    const auto dist = d.longestPathTo();
    EXPECT_EQ(dist[3], 3);
    EXPECT_EQ(dist[4], 1);
    EXPECT_EQ(dist[0], 0);
}

TEST(Algorithms, BfsDistancesOnPath)
{
    const Graph g = pathGraph(6);
    const auto dist = bfsDistances(g, 0);
    for (int u = 0; u < 6; ++u)
        EXPECT_EQ(dist[u], u);
}

TEST(Algorithms, BfsUnreachable)
{
    Graph g(4);
    g.addEdge(0, 1);
    const auto dist = bfsDistances(g, 0);
    EXPECT_EQ(dist[2], -1);
    EXPECT_EQ(dist[3], -1);
}

TEST(Algorithms, ConnectedComponents)
{
    Graph g(6);
    g.addEdge(0, 1);
    g.addEdge(1, 2);
    g.addEdge(3, 4);
    std::vector<int> comp;
    EXPECT_EQ(connectedComponents(g, comp), 3);
    EXPECT_EQ(comp[0], comp[2]);
    EXPECT_EQ(comp[3], comp[4]);
    EXPECT_NE(comp[0], comp[3]);
    EXPECT_NE(comp[3], comp[5]);
}

TEST(Algorithms, RcmCoversAllNodes)
{
    const Graph g = gridGraph(5, 7);
    const auto order = reverseCuthillMcKee(g);
    ASSERT_EQ(order.size(), 35u);
    std::vector<char> seen(35, 0);
    for (NodeId u : order) {
        ASSERT_FALSE(seen[u]);
        seen[u] = 1;
    }
}

TEST(Algorithms, RcmReducesBandwidth)
{
    // A random-labelled grid graph: RCM should achieve bandwidth far
    // below a random labelling.
    const Graph g = gridGraph(8, 8);
    const auto order = reverseCuthillMcKee(g);
    const auto pos = inversePermutation(order);
    const int rcm_bw = bandwidth(g, pos);

    std::vector<int> identity(g.numNodes());
    std::iota(identity.begin(), identity.end(), 0);
    const int natural_bw = bandwidth(g, identity);

    EXPECT_LE(rcm_bw, natural_bw + 2);
    EXPECT_LE(rcm_bw, 12); // optimal is 8 for an 8x8 grid
}

TEST(Algorithms, PseudoPeripheralOnPathIsEnd)
{
    const Graph g = pathGraph(9);
    const NodeId p = pseudoPeripheralNode(g, 4);
    EXPECT_TRUE(p == 0 || p == 8);
}

TEST(Matching, MatchesDisjointPairs)
{
    const Graph g = pathGraph(8);
    Rng rng(3);
    std::vector<NodeId> match, visit_order;
    const int pairs =
        heavyEdgeMatching(FlatGraph(g), rng, match, visit_order);
    EXPECT_GE(pairs, 2);
    for (NodeId u = 0; u < 8; ++u) {
        ASSERT_GE(match[u], 0);
        EXPECT_EQ(match[match[u]], u); // involution
        if (match[u] != u)
            EXPECT_TRUE(g.hasEdge(u, match[u]));
    }
}

TEST(Matching, PrefersHeavyEdges)
{
    Graph g(3);
    g.addEdge(0, 1, 1);
    g.addEdge(1, 2, 100);
    Rng rng(5);
    std::vector<NodeId> match, visit_order;
    heavyEdgeMatching(FlatGraph(g), rng, match, visit_order);
    EXPECT_EQ(match[1], 2);
    EXPECT_EQ(match[0], 0);
}

TEST(Matching, IsolatedNodesSelfMatched)
{
    Graph g(3);
    g.addEdge(0, 1);
    Rng rng(7);
    std::vector<NodeId> match, visit_order;
    heavyEdgeMatching(FlatGraph(g), rng, match, visit_order);
    EXPECT_EQ(match[2], 2);
}

} // namespace
} // namespace dcmbqc

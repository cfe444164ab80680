/**
 * @file
 * Unit tests for the graph substrate: Graph and Digraph and their
 * compressed-row layouts, BFS, connected components, RCM ordering,
 * bandwidth and heavy-edge matching.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <numeric>
#include <utility>

#include "circuit/generators.hh"
#include "common/rng.hh"
#include "graph/algorithms.hh"
#include "graph/digraph.hh"
#include "graph/graph.hh"
#include "mbqc/pattern_builder.hh"
#include "partition/multilevel.hh"
#include "serialize/codecs.hh"

namespace dcmbqc
{
namespace
{

Graph
pathGraph(int n)
{
    std::vector<Edge> edges;
    for (NodeId u = 0; u + 1 < n; ++u)
        edges.push_back({u, u + 1});
    return Graph(n, std::move(edges));
}

Graph
gridGraph(int rows, int cols)
{
    std::vector<Edge> edges;
    auto id = [&](int r, int c) { return r * cols + c; };
    for (int r = 0; r < rows; ++r)
        for (int c = 0; c < cols; ++c) {
            if (r + 1 < rows)
                edges.push_back({id(r, c), id(r + 1, c)});
            if (c + 1 < cols)
                edges.push_back({id(r, c), id(r, c + 1)});
        }
    return Graph(rows * cols, std::move(edges));
}

TEST(Graph, NodesAndEdges)
{
    const Graph g(3, {{0, 1, 5}});
    EXPECT_EQ(g.numNodes(), 3);
    EXPECT_EQ(g.numEdges(), 1);
    EXPECT_EQ(g.edge(0).weight, 5);
    EXPECT_TRUE(g.hasEdge(0, 1));
    EXPECT_TRUE(g.hasEdge(1, 0));
    EXPECT_FALSE(g.hasEdge(0, 2));
    EXPECT_EQ(g.degree(0), 1);
    EXPECT_EQ(g.degree(2), 0);
}

TEST(Graph, WeightsAndTotals)
{
    const Graph g({4, 1, 1}, {{0, 1, 2}, {1, 2, 3}});
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

// --- Compressed-row layout -------------------------------------------------

using Arc = std::pair<NodeId, int>;

std::vector<Arc>
arcsOf(const Graph &g, NodeId u)
{
    std::vector<Arc> arcs;
    for (const Adjacency &adj : g.adjacency(u))
        arcs.push_back({adj.neighbor, adj.weight});
    return arcs;
}

/** Node u's arcs found by scanning `edges` in id order. */
std::vector<Arc>
scannedArcs(const std::vector<Edge> &edges, NodeId u)
{
    std::vector<Arc> arcs;
    for (const Edge &e : edges) {
        if (e.u == u)
            arcs.push_back({e.v, e.weight});
        if (e.v == u)
            arcs.push_back({e.u, e.weight});
    }
    return arcs;
}

/**
 * `count` edges of weight 1..9 among the first `used` nodes, so
 * every node from `used` on stays isolated. Repeated pairs are kept.
 */
std::vector<Edge>
randomEdges(Rng &rng, NodeId used, int count)
{
    std::vector<Edge> edges;
    while (static_cast<int>(edges.size()) < count) {
        const NodeId u = static_cast<NodeId>(rng.uniformInt(used));
        const NodeId v = static_cast<NodeId>(rng.uniformInt(used));
        if (u != v)
            edges.push_back(
                {u, v, 1 + static_cast<int>(rng.uniformInt(9))});
    }
    return edges;
}

TEST(GraphLayout, ArcsFollowTheEdgeListInIdOrder)
{
    Rng rng(11);
    for (int trial = 0; trial < 20; ++trial) {
        SCOPED_TRACE(trial);
        const NodeId n = 2 + static_cast<NodeId>(rng.uniformInt(40));
        const NodeId used = 2 + static_cast<NodeId>(rng.uniformInt(n - 1));
        const std::vector<Edge> edges = randomEdges(
            rng, used, static_cast<int>(rng.uniformInt(3 * n)));
        std::vector<int> weights(n);
        for (int &w : weights)
            w = 1 + static_cast<int>(rng.uniformInt(4));
        const Graph g(weights, edges);

        ASSERT_EQ(g.numNodes(), n);
        ASSERT_EQ(g.numEdges(), static_cast<EdgeId>(edges.size()));
        int max_degree = 0;
        for (NodeId u = 0; u < n; ++u) {
            EXPECT_EQ(g.nodeWeight(u), weights[u]);
            const std::vector<Arc> expected = scannedArcs(edges, u);
            EXPECT_EQ(arcsOf(g, u), expected) << "node " << u;
            EXPECT_EQ(g.degree(u), static_cast<int>(expected.size()));
            EXPECT_EQ(g.adjacency(u).size(), expected.size());
            long long weighted = 0;
            for (const Arc &arc : expected)
                weighted += arc.second;
            EXPECT_EQ(g.weightedDegree(u), weighted);
            max_degree = std::max(max_degree, g.degree(u));
            for (NodeId v = 0; v < n; ++v) {
                bool joined = false;
                for (const Arc &arc : expected)
                    joined |= arc.first == v;
                EXPECT_EQ(g.hasEdge(u, v), joined) << u << "-" << v;
            }
        }
        EXPECT_EQ(g.maxDegree(), max_degree);
    }
}

TEST(GraphLayout, InducedSubgraphKeepsEdgeOrderAndWeights)
{
    Rng rng(12);
    const NodeId n = 30;
    const std::vector<Edge> edges = randomEdges(rng, n, 80);
    std::vector<int> weights(n);
    for (int &w : weights)
        w = 1 + static_cast<int>(rng.uniformInt(4));
    const Graph g(weights, edges);

    // Every third node, numbered in reverse.
    std::vector<NodeId> nodes;
    for (NodeId u = n - 1; u >= 0; u -= 3)
        nodes.push_back(u);
    std::vector<NodeId> to_sub;
    const Graph sub = g.inducedSubgraph(nodes, &to_sub);

    std::vector<Edge> expected;
    for (const Edge &e : edges)
        if (to_sub[e.u] != invalidNode && to_sub[e.v] != invalidNode)
            expected.push_back({to_sub[e.u], to_sub[e.v], e.weight});
    ASSERT_EQ(sub.numEdges(), static_cast<EdgeId>(expected.size()));
    for (EdgeId e = 0; e < sub.numEdges(); ++e) {
        EXPECT_EQ(sub.edge(e).u, expected[e].u) << e;
        EXPECT_EQ(sub.edge(e).v, expected[e].v) << e;
        EXPECT_EQ(sub.edge(e).weight, expected[e].weight) << e;
    }
    for (NodeId i = 0; i < sub.numNodes(); ++i) {
        EXPECT_EQ(sub.nodeWeight(i), weights[nodes[i]]);
        EXPECT_EQ(arcsOf(sub, i), scannedArcs(expected, i));
    }
}

TEST(GraphLayout, EmptyAndEdgelessGraphs)
{
    for (const Graph &g : {Graph(), Graph(0)}) {
        EXPECT_EQ(g.numNodes(), 0);
        EXPECT_EQ(g.numEdges(), 0);
        EXPECT_EQ(g.maxDegree(), 0);
        EXPECT_EQ(g.totalNodeWeight(), 0);
        EXPECT_EQ(g.inducedSubgraph({}).numNodes(), 0);
    }
    const Graph isolated(5);
    EXPECT_EQ(isolated.numEdges(), 0);
    EXPECT_EQ(isolated.totalNodeWeight(), 5);
    EXPECT_EQ(isolated.maxDegree(), 0);
    for (NodeId u = 0; u < 5; ++u) {
        EXPECT_EQ(isolated.degree(u), 0);
        EXPECT_EQ(isolated.adjacency(u).size(), 0u);
        EXPECT_EQ(isolated.weightedDegree(u), 0);
        EXPECT_FALSE(isolated.hasEdge(u, (u + 1) % 5));
    }
    const Graph sub = isolated.inducedSubgraph({4, 1});
    EXPECT_EQ(sub.numNodes(), 2);
    EXPECT_EQ(sub.numEdges(), 0);
    EXPECT_EQ(sub.degree(1), 0);
}

TEST(GraphLayout, DecodedPatternGraphMatchesTheBuiltOneArcForArc)
{
    for (const Circuit &circuit :
         {makeQft(8), makeQaoaMaxcut(10, 7), makeVqe(6, 2, 11)}) {
        SCOPED_TRACE(circuit.name());
        const Pattern built = buildPattern(circuit);
        const auto decoded =
            decodePatternArtifact(encodePatternArtifact(built));
        ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
        const Graph &a = built.graph();
        const Graph &b = decoded->graph();
        ASSERT_EQ(a.numNodes(), b.numNodes());
        ASSERT_EQ(a.numEdges(), b.numEdges());
        for (NodeId u = 0; u < a.numNodes(); ++u) {
            EXPECT_EQ(a.nodeWeight(u), b.nodeWeight(u)) << u;
            EXPECT_EQ(arcsOf(a, u), arcsOf(b, u)) << u;
            EXPECT_EQ(arcsOf(a, u), scannedArcs(a.edges(), u)) << u;
        }
    }
}

TEST(Digraph, TopologicalSortDag)
{
    const Digraph d(4, {{0, 1}, {1, 2}, {0, 3}, {3, 2}});
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
    const Digraph d(3, {{0, 1}, {1, 2}, {2, 0}});
    EXPECT_FALSE(d.isAcyclic());
}

TEST(Digraph, LongestPath)
{
    const Digraph d(5, {{0, 1}, {1, 2}, {2, 3}, {0, 4}});
    std::vector<NodeId> order;
    ASSERT_TRUE(d.topologicalSort(order));
    const auto dist = d.longestPathTo(order);
    EXPECT_EQ(dist[3], 3);
    EXPECT_EQ(dist[4], 1);
    EXPECT_EQ(dist[0], 0);
}

TEST(DigraphLayout, RandomArcListsKeepArcOrderPerNode)
{
    Rng rng(41);
    for (int trial = 0; trial < 200; ++trial) {
        SCOPED_TRACE("trial " + std::to_string(trial));
        // Up to 2n arcs over n nodes: some nodes stay isolated, and
        // one arc in four repeats an earlier one.
        const auto n = static_cast<NodeId>(rng.uniformInt(24));
        const std::uint64_t m = n == 0 ? 0 : rng.uniformInt(2 * n + 1);
        std::vector<dcmbqc::Arc> arcs;
        std::vector<std::vector<NodeId>> succ(n), pred(n);
        for (std::uint64_t i = 0; i < m; ++i) {
            dcmbqc::Arc arc{static_cast<NodeId>(rng.uniformInt(n)),
                    static_cast<NodeId>(rng.uniformInt(n))};
            if (!arcs.empty() && rng.uniformInt(4) == 0)
                arc = arcs[rng.uniformInt(arcs.size())];
            arcs.push_back(arc);
            succ[arc.from].push_back(arc.to);
            pred[arc.to].push_back(arc.from);
        }

        const Digraph d(n, arcs);
        ASSERT_EQ(d.numNodes(), n);
        EXPECT_EQ(d.numArcs(), arcs.size());
        for (NodeId u = 0; u < n; ++u) {
            const auto s = d.successors(u);
            const auto p = d.predecessors(u);
            EXPECT_EQ(std::vector<NodeId>(s.begin(), s.end()), succ[u]);
            EXPECT_EQ(std::vector<NodeId>(p.begin(), p.end()), pred[u]);
            EXPECT_EQ(d.inDegree(u), static_cast<int>(pred[u].size()));
        }

        // The codec still writes the node count and then each node's
        // successor count and successors, as little-endian 32-bit words.
        std::vector<std::uint8_t> expected;
        auto put = [&](std::uint32_t word) {
            for (int shift = 0; shift < 32; shift += 8)
                expected.push_back(static_cast<std::uint8_t>(word >> shift));
        };
        put(n);
        for (NodeId u = 0; u < n; ++u) {
            put(static_cast<std::uint32_t>(succ[u].size()));
            for (NodeId v : succ[u])
                put(v);
        }
        BinaryWriter written;
        encodeDigraph(written, d);
        EXPECT_EQ(written.bytes(), expected);
        BinaryReader reader(written.bytes());
        const Digraph decoded = decodeDigraph(reader);
        ASSERT_TRUE(reader.ok());
        BinaryWriter rewritten;
        encodeDigraph(rewritten, decoded);
        EXPECT_EQ(rewritten.bytes(), expected);
        // The codec lists arcs by source node, so a decoded node's
        // predecessors come in source order.
        std::vector<std::vector<NodeId>> pred_by_source(n);
        for (NodeId u = 0; u < n; ++u)
            for (NodeId v : succ[u])
                pred_by_source[v].push_back(u);
        EXPECT_EQ(decoded.numArcs(), arcs.size());
        for (NodeId u = 0; u < n; ++u) {
            const auto p = decoded.predecessors(u);
            EXPECT_EQ(std::vector<NodeId>(p.begin(), p.end()),
                      pred_by_source[u]);
        }
    }
}

TEST(DigraphLayout, EmptyAndArclessDigraphs)
{
    for (const Digraph &d : {Digraph(), Digraph(0)}) {
        EXPECT_EQ(d.numNodes(), 0);
        EXPECT_EQ(d.numArcs(), 0u);
        EXPECT_TRUE(d.isAcyclic());
    }
    const Digraph isolated(3);
    EXPECT_EQ(isolated.numArcs(), 0u);
    for (NodeId u = 0; u < 3; ++u) {
        EXPECT_EQ(isolated.successors(u).size(), 0u);
        EXPECT_EQ(isolated.predecessors(u).size(), 0u);
    }
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
    Graph g(4, {{0, 1}});
    const auto dist = bfsDistances(g, 0);
    EXPECT_EQ(dist[2], -1);
    EXPECT_EQ(dist[3], -1);
}

TEST(Algorithms, ConnectedComponents)
{
    Graph g(6, {{0, 1}, {1, 2}, {3, 4}});
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
    const int pairs = heavyEdgeMatching(g, rng, match, visit_order);
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
    Graph g(3, {{0, 1, 1}, {1, 2, 100}});
    Rng rng(5);
    std::vector<NodeId> match, visit_order;
    heavyEdgeMatching(g, rng, match, visit_order);
    EXPECT_EQ(match[1], 2);
    EXPECT_EQ(match[0], 0);
}

TEST(Matching, IsolatedNodesSelfMatched)
{
    Graph g(3, {{0, 1}});
    Rng rng(7);
    std::vector<NodeId> match, visit_order;
    heavyEdgeMatching(g, rng, match, visit_order);
    EXPECT_EQ(match[2], 2);
}

} // namespace
} // namespace dcmbqc

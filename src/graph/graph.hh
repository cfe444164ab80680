/**
 * @file
 * Undirected weighted graph. This is the representation used for
 * MBQC graph states and computation graphs (nodes = resource units,
 * edges = fusions, as in OneQ).
 */

#ifndef DCMBQC_GRAPH_GRAPH_HH
#define DCMBQC_GRAPH_GRAPH_HH

#include <algorithm>
#include <cstddef>
#include <vector>

#include "common/types.hh"

namespace dcmbqc
{

/** One arc of a node's adjacency: the neighbor and the edge weight. */
struct Adjacency
{
    NodeId neighbor;
    int weight;
};

/**
 * One node's row of a compressed-row array, [begin, end), as Graph
 * and Digraph hand it out.
 */
template <typename T>
class RowView
{
  public:
    RowView(const T *begin, const T *end) : begin_(begin), end_(end) {}

    const T *begin() const { return begin_; }
    const T *end() const { return end_; }
    std::size_t size() const { return end_ - begin_; }
    const T &operator[](std::size_t i) const { return begin_[i]; }

    bool
    operator==(const RowView &other) const
    {
        return std::equal(begin_, end_, other.begin_, other.end_);
    }

  private:
    const T *begin_;
    const T *end_;
};

/** An undirected edge with an integer weight. */
struct Edge
{
    NodeId u;
    NodeId v;
    int weight = 1;
};

/**
 * Undirected graph with integer node and edge weights, built once
 * from its node weights and edge list.
 *
 * Node weights represent resource units for workload balancing;
 * edge weights represent fusion multiplicity. The layout is
 * compressed sparse rows, METIS's `xadj`/`adjncy`/`adjwgt`
 * (Karypis-Kumar [32]): the edge list in id order, and every node's
 * arcs in one array, node u's at [arcBegin_[u], arcBegin_[u + 1]).
 * Each node's arcs follow edge ids, the order that artifact bytes
 * and the partitioner's tie-breaks depend on.
 */
class Graph
{
  public:
    /** A node's arcs, in edge-id order. */
    using Arcs = RowView<Adjacency>;

    Graph() = default;

    /** Nodes of weight 1 and the given edges. */
    explicit Graph(NodeId num_nodes, std::vector<Edge> edges = {});

    /**
     * Construct from node weights and an edge list; edge i gets id
     * i. Edge endpoints must be distinct nodes in range.
     */
    Graph(std::vector<int> node_weights, std::vector<Edge> edges);

    /** True when an edge between u and v exists (scans adjacency). */
    bool hasEdge(NodeId u, NodeId v) const;

    NodeId numNodes() const { return static_cast<NodeId>(nodeWeights_.size()); }
    EdgeId numEdges() const { return static_cast<EdgeId>(edges_.size()); }

    int nodeWeight(NodeId u) const { return nodeWeights_[u]; }
    void setNodeWeight(NodeId u, int w) { nodeWeights_[u] = w; }

    /** Sum of all node weights. */
    long long totalNodeWeight() const;

    /** Sum of all edge weights. */
    long long totalEdgeWeight() const;

    const Edge &edge(EdgeId e) const { return edges_[e]; }
    const std::vector<Edge> &edges() const { return edges_; }

    /** Arcs of node u (neighbor, weight pairs). */
    Arcs
    adjacency(NodeId u) const
    {
        return {arcs_.data() + arcBegin_[u], arcs_.data() + arcBegin_[u + 1]};
    }

    /** Unweighted degree of node u. */
    int degree(NodeId u) const { return arcBegin_[u + 1] - arcBegin_[u]; }

    /** Sum of incident edge weights of node u. */
    long long weightedDegree(NodeId u) const;

    /** Maximum unweighted degree over all nodes. */
    int maxDegree() const;

    /**
     * Extract the subgraph induced by the given nodes.
     *
     * @param nodes Node ids of the subgraph, in the order they should
     *        be numbered in the result.
     * @param to_sub Optional out-map from original id to subgraph id
     *        (invalidNode for nodes outside the subgraph).
     * @return The induced subgraph; node i corresponds to nodes[i],
     *         and its edges keep their relative order.
     */
    Graph inducedSubgraph(const std::vector<NodeId> &nodes,
                          std::vector<NodeId> *to_sub = nullptr) const;

  private:
    std::vector<int> nodeWeights_;
    std::vector<Edge> edges_;
    std::vector<int> arcBegin_;
    std::vector<Adjacency> arcs_;
};

} // namespace dcmbqc

#endif // DCMBQC_GRAPH_GRAPH_HH

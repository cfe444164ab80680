/**
 * @file
 * Undirected weighted graph. This is the representation used for
 * MBQC graph states and computation graphs (nodes = resource units,
 * edges = fusions, as in OneQ).
 */

#ifndef DCMBQC_GRAPH_GRAPH_HH
#define DCMBQC_GRAPH_GRAPH_HH

#include <utility>
#include <vector>

#include "common/types.hh"

namespace dcmbqc
{

/** One endpoint record in an adjacency list. */
struct Adjacency
{
    NodeId neighbor;
    EdgeId edge;
    int weight;
};

/** An undirected edge with an integer weight. */
struct Edge
{
    NodeId u;
    NodeId v;
    int weight;
};

/**
 * Undirected graph with integer node and edge weights.
 *
 * Node weights default to 1 and represent resource units for
 * workload balancing; edge weights default to 1 and represent fusion
 * multiplicity.
 */
class Graph
{
  public:
    Graph() = default;

    /** Construct with a fixed number of isolated nodes. */
    explicit Graph(NodeId num_nodes);

    /**
     * Construct from node weights and an edge list: the graph that
     * adding the nodes and then calling addEdge(e.u, e.v, e.weight)
     * for each edge in order gives, adjacency order included, with
     * each adjacency list allocated once at its exact size. Edge
     * endpoints must be distinct nodes in range.
     */
    Graph(std::vector<int> node_weights, std::vector<Edge> edges);

    /** Append a new isolated node and return its id. */
    NodeId addNode(int weight = 1);

    /**
     * Add an undirected edge between u and v.
     *
     * @return The new edge's id.
     */
    EdgeId addEdge(NodeId u, NodeId v, int weight = 1);

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

    /** Adjacency of node u (neighbor, edge id, weight triples). */
    const std::vector<Adjacency> &adjacency(NodeId u) const
    {
        return adjacency_[u];
    }

    /** Unweighted degree of node u. */
    int degree(NodeId u) const
    {
        return static_cast<int>(adjacency_[u].size());
    }

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
     * @return The induced subgraph; node i corresponds to nodes[i].
     */
    Graph inducedSubgraph(const std::vector<NodeId> &nodes,
                          std::vector<NodeId> *to_sub = nullptr) const;

  private:
    std::vector<int> nodeWeights_;
    std::vector<std::vector<Adjacency>> adjacency_;
    std::vector<Edge> edges_;
};

} // namespace dcmbqc

#endif // DCMBQC_GRAPH_GRAPH_HH

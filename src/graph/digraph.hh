/**
 * @file
 * Directed graph used for MBQC measurement dependency graphs
 * (Section II-A of the paper) and task precedence in scheduling.
 */

#ifndef DCMBQC_GRAPH_DIGRAPH_HH
#define DCMBQC_GRAPH_DIGRAPH_HH

#include <vector>

#include "common/types.hh"
#include "graph/graph.hh"

namespace dcmbqc
{

/** A directed arc from -> to. */
struct Arc
{
    NodeId from;
    NodeId to;
};

/**
 * Directed graph with successor and predecessor lists, built once
 * from its node count and arc list. Nodes are dense integers
 * [0, numNodes).
 *
 * The layout is compressed sparse rows, as in Graph: node u's
 * successors are succ_[succBegin_[u], succBegin_[u + 1]), and its
 * predecessors likewise. Each node's lists follow the arc list's
 * order, the order topological sorts and artifact bytes depend on.
 */
class Digraph
{
  public:
    /** A node's successors or predecessors, in arc order. */
    using Nodes = RowView<NodeId>;

    Digraph() = default;

    /**
     * Construct from a node count and an arc list. Arc endpoints must
     * be nodes in range; repeated arcs are kept.
     */
    explicit Digraph(NodeId num_nodes, const std::vector<Arc> &arcs = {});

    NodeId numNodes() const { return numNodes_; }

    /** Total number of arcs. */
    std::size_t numArcs() const { return succ_.size(); }

    Nodes
    successors(NodeId u) const
    {
        return {succ_.data() + succBegin_[u],
                succ_.data() + succBegin_[u + 1]};
    }

    Nodes
    predecessors(NodeId u) const
    {
        return {pred_.data() + predBegin_[u],
                pred_.data() + predBegin_[u + 1]};
    }

    int inDegree(NodeId u) const { return predBegin_[u + 1] - predBegin_[u]; }

    /**
     * Kahn topological sort.
     *
     * @param order Out parameter filled with a topological order.
     * @return False when the graph contains a cycle (order is then
     *         a partial prefix).
     */
    bool topologicalSort(std::vector<NodeId> &order) const;

    /** True when the graph is acyclic. */
    bool isAcyclic() const;

    /**
     * Length (in arcs) of the longest path ending at each node.
     *
     * @param order A topological order (topologicalSort).
     */
    std::vector<int> longestPathTo(const std::vector<NodeId> &order) const;

  private:
    NodeId numNodes_ = 0;
    std::vector<int> succBegin_;
    std::vector<NodeId> succ_;
    std::vector<int> predBegin_;
    std::vector<NodeId> pred_;
};

} // namespace dcmbqc

#endif // DCMBQC_GRAPH_DIGRAPH_HH

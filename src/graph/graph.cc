#include "graph/graph.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace dcmbqc
{

Graph::Graph(NodeId num_nodes, std::vector<Edge> edges)
    : Graph(std::vector<int>(num_nodes, 1), std::move(edges))
{
}

Graph::Graph(std::vector<int> node_weights, std::vector<Edge> edges)
    : nodeWeights_(std::move(node_weights)), edges_(std::move(edges)),
      arcBegin_(nodeWeights_.size() + 1, 0)
{
    const NodeId n = numNodes();
    for (const Edge &e : edges_) {
        DCMBQC_ASSERT(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n &&
                          e.u != e.v,
                      "Graph: bad edge (", e.u, ", ", e.v, ")");
        ++arcBegin_[e.u + 1];
        ++arcBegin_[e.v + 1];
    }
    std::partial_sum(arcBegin_.begin(), arcBegin_.end(), arcBegin_.begin());

    // arcBegin_[u] is u's fill cursor, which ends where u + 1's arcs
    // begin; shifting the cursors up one node restores the offsets.
    arcs_.resize(arcBegin_[n]);
    for (const Edge &e : edges_) {
        arcs_[arcBegin_[e.u]++] = {e.v, e.weight};
        arcs_[arcBegin_[e.v]++] = {e.u, e.weight};
    }
    for (NodeId u = n - 1; u > 0; --u)
        arcBegin_[u] = arcBegin_[u - 1];
    arcBegin_[0] = 0;
}

bool
Graph::hasEdge(NodeId u, NodeId v) const
{
    const NodeId probe = degree(u) <= degree(v) ? u : v;
    const NodeId other = probe == u ? v : u;
    for (const Adjacency &adj : adjacency(probe))
        if (adj.neighbor == other)
            return true;
    return false;
}

long long
Graph::totalNodeWeight() const
{
    long long total = 0;
    for (int w : nodeWeights_)
        total += w;
    return total;
}

long long
Graph::totalEdgeWeight() const
{
    long long total = 0;
    for (const auto &e : edges_)
        total += e.weight;
    return total;
}

long long
Graph::weightedDegree(NodeId u) const
{
    long long total = 0;
    for (const Adjacency &adj : adjacency(u))
        total += adj.weight;
    return total;
}

int
Graph::maxDegree() const
{
    int best = 0;
    for (NodeId u = 0; u < numNodes(); ++u)
        best = std::max(best, degree(u));
    return best;
}

Graph
Graph::inducedSubgraph(const std::vector<NodeId> &nodes,
                       std::vector<NodeId> *to_sub) const
{
    std::vector<NodeId> map(numNodes(), invalidNode);
    std::vector<int> weights(nodes.size());
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        DCMBQC_ASSERT(map[nodes[i]] == invalidNode,
                      "duplicate node in subgraph selection");
        map[nodes[i]] = static_cast<NodeId>(i);
        weights[i] = nodeWeight(nodes[i]);
    }
    std::vector<Edge> edges;
    for (const Edge &e : edges_) {
        const NodeId su = map[e.u];
        const NodeId sv = map[e.v];
        if (su != invalidNode && sv != invalidNode)
            edges.push_back({su, sv, e.weight});
    }
    if (to_sub)
        *to_sub = std::move(map);
    return Graph(std::move(weights), std::move(edges));
}

} // namespace dcmbqc

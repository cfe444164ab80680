#include "graph/graph.hh"

#include "common/logging.hh"

namespace dcmbqc
{

Graph::Graph(NodeId num_nodes)
    : nodeWeights_(num_nodes, 1), adjacency_(num_nodes)
{
}

Graph::Graph(std::vector<int> node_weights, std::vector<Edge> edges)
    : nodeWeights_(std::move(node_weights)),
      adjacency_(nodeWeights_.size()), edges_(std::move(edges))
{
    const NodeId n = numNodes();
    std::vector<int> degree(n, 0);
    for (const Edge &e : edges_) {
        DCMBQC_ASSERT(e.u >= 0 && e.u < n && e.v >= 0 && e.v < n &&
                          e.u != e.v,
                      "Graph: bad edge (", e.u, ", ", e.v, ")");
        ++degree[e.u];
        ++degree[e.v];
    }
    for (NodeId u = 0; u < n; ++u)
        adjacency_[u].reserve(degree[u]);
    for (EdgeId e = 0; e < numEdges(); ++e) {
        const Edge &edge = edges_[e];
        adjacency_[edge.u].push_back({edge.v, e, edge.weight});
        adjacency_[edge.v].push_back({edge.u, e, edge.weight});
    }
}

NodeId
Graph::addNode(int weight)
{
    nodeWeights_.push_back(weight);
    adjacency_.emplace_back();
    return static_cast<NodeId>(nodeWeights_.size() - 1);
}

EdgeId
Graph::addEdge(NodeId u, NodeId v, int weight)
{
    DCMBQC_ASSERT(u >= 0 && u < numNodes(), "addEdge: bad u=", u);
    DCMBQC_ASSERT(v >= 0 && v < numNodes(), "addEdge: bad v=", v);
    DCMBQC_ASSERT(u != v, "addEdge: self loop at ", u);

    EdgeId e = static_cast<EdgeId>(edges_.size());
    edges_.push_back({u, v, weight});
    adjacency_[u].push_back({v, e, weight});
    adjacency_[v].push_back({u, e, weight});
    return e;
}

bool
Graph::hasEdge(NodeId u, NodeId v) const
{
    const NodeId probe = adjacency_[u].size() <= adjacency_[v].size() ? u : v;
    const NodeId other = probe == u ? v : u;
    for (const auto &adj : adjacency_[probe])
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
    for (const auto &adj : adjacency_[u])
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
    Graph sub(static_cast<NodeId>(nodes.size()));
    for (std::size_t i = 0; i < nodes.size(); ++i) {
        DCMBQC_ASSERT(map[nodes[i]] == invalidNode,
                      "duplicate node in subgraph selection");
        map[nodes[i]] = static_cast<NodeId>(i);
        sub.setNodeWeight(static_cast<NodeId>(i), nodeWeight(nodes[i]));
    }
    for (const auto &e : edges_) {
        const NodeId su = map[e.u];
        const NodeId sv = map[e.v];
        if (su != invalidNode && sv != invalidNode)
            sub.addEdge(su, sv, e.weight);
    }
    if (to_sub)
        *to_sub = std::move(map);
    return sub;
}

} // namespace dcmbqc

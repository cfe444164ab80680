#include "graph/digraph.hh"

#include <numeric>

#include "common/logging.hh"

namespace dcmbqc
{

namespace
{

/**
 * Lay `arcs` out as one row per node: arc a lands in row a.*row as
 * a.*entry, and each row keeps the arcs' order.
 */
void
fillRows(NodeId n, const std::vector<Arc> &arcs, NodeId Arc::*row,
         NodeId Arc::*entry, std::vector<int> &begin,
         std::vector<NodeId> &entries)
{
    begin.assign(n + 1, 0);
    for (const Arc &a : arcs)
        ++begin[a.*row + 1];
    std::partial_sum(begin.begin(), begin.end(), begin.begin());

    // begin[u] is u's fill cursor, which ends where u + 1's row
    // begins; shifting the cursors up one node restores the offsets.
    entries.resize(arcs.size());
    for (const Arc &a : arcs)
        entries[begin[a.*row]++] = a.*entry;
    for (NodeId u = n - 1; u > 0; --u)
        begin[u] = begin[u - 1];
    begin[0] = 0;
}

} // namespace

Digraph::Digraph(NodeId num_nodes, const std::vector<Arc> &arcs)
    : numNodes_(num_nodes)
{
    DCMBQC_ASSERT(num_nodes >= 0, "Digraph: negative node count");
    for (const Arc &a : arcs)
        DCMBQC_ASSERT(a.from >= 0 && a.from < num_nodes && a.to >= 0 &&
                          a.to < num_nodes,
                      "Digraph: bad arc (", a.from, ", ", a.to, ")");
    fillRows(num_nodes, arcs, &Arc::from, &Arc::to, succBegin_, succ_);
    fillRows(num_nodes, arcs, &Arc::to, &Arc::from, predBegin_, pred_);
}

bool
Digraph::topologicalSort(std::vector<NodeId> &order) const
{
    order.clear();
    order.reserve(numNodes());
    std::vector<int> indeg(numNodes());
    for (NodeId u = 0; u < numNodes(); ++u)
        indeg[u] = inDegree(u);

    std::vector<NodeId> queue;
    for (NodeId u = 0; u < numNodes(); ++u)
        if (indeg[u] == 0)
            queue.push_back(u);

    std::size_t head = 0;
    while (head < queue.size()) {
        NodeId u = queue[head++];
        order.push_back(u);
        for (NodeId v : successors(u))
            if (--indeg[v] == 0)
                queue.push_back(v);
    }
    return order.size() == static_cast<std::size_t>(numNodes());
}

bool
Digraph::isAcyclic() const
{
    std::vector<NodeId> order;
    return topologicalSort(order);
}

std::vector<int>
Digraph::longestPathTo(const std::vector<NodeId> &order) const
{
    std::vector<int> dist(numNodes(), 0);
    for (NodeId u : order)
        for (NodeId v : successors(u))
            dist[v] = std::max(dist[v], dist[u] + 1);
    return dist;
}

} // namespace dcmbqc

#include "mbqc/pattern.hh"

#include "common/logging.hh"

namespace dcmbqc
{

Pattern::Pattern(Graph graph, std::vector<double> angles,
                 std::vector<NodeId> flow, std::vector<QubitId> wires,
                 std::vector<NodeId> measurement_order,
                 std::vector<NodeId> outputs)
    : graph_(std::move(graph)), angles_(std::move(angles)),
      flow_(std::move(flow)), wires_(std::move(wires)),
      measurementOrder_(std::move(measurement_order)),
      outputs_(std::move(outputs))
{
    const auto n = static_cast<std::size_t>(graph_.numNodes());
    DCMBQC_ASSERT(angles_.size() == n && flow_.size() == n &&
                      wires_.size() == n,
                  "Pattern: per-node parts disagree with the graph");
}

void
Pattern::validate() const
{
    DCMBQC_ASSERT(static_cast<NodeId>(angles_.size()) == numNodes(),
                  "angles size mismatch");
    const NodeId measured =
        static_cast<NodeId>(measurementOrder_.size());
    DCMBQC_ASSERT(measured + static_cast<NodeId>(outputs_.size()) ==
                      numNodes(),
                  "every node must be measured or an output");
    for (NodeId out : outputs_)
        DCMBQC_ASSERT(flow_[out] == invalidNode, "output has flow");
    for (NodeId u : measurementOrder_) {
        DCMBQC_ASSERT(flow_[u] != invalidNode, "measured without flow");
        // The flow successor must be a graph neighbor (flow axiom).
        bool neighbor = false;
        for (const auto &adj : graph_.adjacency(u))
            neighbor |= adj.neighbor == flow_[u];
        DCMBQC_ASSERT(neighbor, "flow successor of ", u,
                      " is not a neighbor");
    }
}

} // namespace dcmbqc

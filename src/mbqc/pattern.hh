/**
 * @file
 * One-way MBQC measurement pattern (Section II-A of the paper): a
 * graph state plus a sequence of adaptive single-qubit measurements,
 * with a causal flow that determines the Pauli byproduct
 * corrections.
 */

#ifndef DCMBQC_MBQC_PATTERN_HH
#define DCMBQC_MBQC_PATTERN_HH

#include <vector>

#include "common/types.hh"
#include "graph/graph.hh"

namespace dcmbqc
{

/**
 * A measurement pattern with causal flow.
 *
 * Node ids are creation order. Every non-output node carries a base
 * measurement angle theta (measured in the XY-plane basis
 * {|+_theta>, |-_theta>}); the runtime-adapted angle is
 * (-1)^{sx} theta + sz pi, where sx / sz are the parities of the
 * X- and Z-dependency outcomes (flow construction).
 */
class Pattern
{
  public:
    Pattern() = default;

    /**
     * Assemble a pattern from its parts: the graph, per-node angles,
     * flow successors and wires, the measured nodes in measurement
     * order, and the outputs. The pattern builder and the artifact
     * decoder both build patterns this way; the caller has checked
     * that the parts are consistent (validate() re-checks them).
     */
    Pattern(Graph graph, std::vector<double> angles,
            std::vector<NodeId> flow, std::vector<QubitId> wires,
            std::vector<NodeId> measurement_order,
            std::vector<NodeId> outputs);

    /** The graph state's entanglement graph. */
    const Graph &graph() const { return graph_; }

    NodeId numNodes() const { return graph_.numNodes(); }

    /** Base measurement angle of node u (unused for outputs). */
    double angle(NodeId u) const { return angles_[u]; }

    /** True when node u is an output (left unmeasured). */
    bool isOutput(NodeId u) const { return flow_[u] == invalidNode; }

    /** Causal flow successor f(u); invalidNode for outputs. */
    NodeId flow(NodeId u) const { return flow_[u]; }

    /** Circuit wire this node belongs to. */
    QubitId wire(NodeId u) const { return wires_[u]; }

    /** Measured nodes in temporal (J application) order. */
    const std::vector<NodeId> &measurementOrder() const
    {
        return measurementOrder_;
    }

    /** Output node of each circuit wire. */
    const std::vector<NodeId> &outputs() const { return outputs_; }

    /** Number of circuit wires (logical qubits). */
    int numWires() const { return static_cast<int>(outputs_.size()); }

    /** Internal consistency checks (flow, angles, orders). */
    void validate() const;

  private:
    Graph graph_;
    std::vector<double> angles_;
    std::vector<NodeId> flow_;
    std::vector<QubitId> wires_;
    std::vector<NodeId> measurementOrder_;
    std::vector<NodeId> outputs_;
};

} // namespace dcmbqc

#endif // DCMBQC_MBQC_PATTERN_HH

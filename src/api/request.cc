#include "api/request.hh"

#include <cmath>

namespace dcmbqc
{

CompileRequest
CompileRequest::fromCircuit(Circuit circuit, std::string label)
{
    CompileRequest request;
    request.entry_ = EntryPoint::Circuit;
    if (label.empty())
        label = circuit.name();
    request.label_ = std::move(label);
    request.circuit_.emplace(std::move(circuit));
    return request;
}

CompileRequest
CompileRequest::fromCircuitStream(std::shared_ptr<CircuitStream> stream,
                                 std::string label)
{
    CompileRequest request;
    request.entry_ = EntryPoint::CircuitStream;
    if (label.empty() && stream != nullptr)
        label = stream->name();
    request.label_ = std::move(label);
    request.stream_ = std::move(stream);
    return request;
}

CompileRequest
CompileRequest::fromPattern(Pattern pattern, std::string label)
{
    CompileRequest request;
    request.entry_ = EntryPoint::Pattern;
    request.label_ = std::move(label);
    request.pattern_.emplace(std::move(pattern));
    return request;
}

CompileRequest
CompileRequest::fromGraph(Graph graph, Digraph deps, std::string label)
{
    CompileRequest request;
    request.entry_ = EntryPoint::Graph;
    request.label_ = std::move(label);
    request.graph_.emplace(std::move(graph));
    request.deps_.emplace(std::move(deps));
    return request;
}

Status
CompileRequest::validate() const
{
    switch (entry_) {
      case EntryPoint::Circuit:
        if (circuit_->numGates() == 0)
            return Status::invalidArgument(
                "circuit '" + circuit_->name() + "' has no gates");
        for (std::size_t i = 0; i < circuit_->gates().size(); ++i) {
            const Gate &gate = circuit_->gates()[i];
            if (!std::isfinite(gate.angle))
                return Status::invalidArgument(
                    "circuit '" + circuit_->name() + "' gate " +
                    std::to_string(i) + " (" + gate.toString() +
                    ") has a non-finite angle");
        }
        return Status::okStatus();

      case EntryPoint::CircuitStream:
        if (stream_ == nullptr)
            return Status::invalidArgument("circuit stream is null");
        if (stream_->numQubits() < 1)
            return Status::invalidArgument(
                "circuit stream '" + stream_->name() +
                "' has no qubits");
        if (stream_->totalGates() == 0)
            return Status::invalidArgument(
                "circuit stream '" + stream_->name() +
                "' has no gates");
        return Status::okStatus();

      case EntryPoint::Pattern:
        if (pattern_->numNodes() == 0)
            return Status::invalidArgument("pattern has no nodes");
        return checkFiniteAngles(*pattern_);

      case EntryPoint::Graph:
        if (graph_->numNodes() == 0)
            return Status::invalidArgument(
                "computation graph has no nodes");
        if (deps_->numNodes() != graph_->numNodes())
            return Status::invalidArgument(
                "dependency graph has " +
                std::to_string(deps_->numNodes()) +
                " nodes but computation graph has " +
                std::to_string(graph_->numNodes()));
        if (!deps_->isAcyclic())
            return Status::invalidArgument(
                "dependency graph contains a cycle");
        return Status::okStatus();
    }
    return Status::internal("unknown entry point");
}

const Circuit &
CompileRequest::circuit() const
{
    if (!circuit_)
        panic("CompileRequest::circuit() on non-circuit entry");
    return *circuit_;
}

const Pattern &
CompileRequest::pattern() const
{
    if (!pattern_)
        panic("CompileRequest::pattern() on non-pattern entry");
    return *pattern_;
}

const Graph &
CompileRequest::graph() const
{
    if (!graph_)
        panic("CompileRequest::graph() on non-graph entry");
    return *graph_;
}

const Digraph &
CompileRequest::deps() const
{
    if (!deps_)
        panic("CompileRequest::deps() on non-graph entry");
    return *deps_;
}

CircuitStream &
CompileRequest::stream() const
{
    if (!stream_)
        panic("CompileRequest::stream() on non-stream entry");
    return *stream_;
}

Status
checkFiniteAngles(const Pattern &pattern)
{
    for (const NodeId u : pattern.measurementOrder())
        if (!std::isfinite(pattern.angle(u)))
            return Status::invalidArgument(
                "pattern node " + std::to_string(u) +
                " measures at a non-finite angle");
    return Status::okStatus();
}

} // namespace dcmbqc

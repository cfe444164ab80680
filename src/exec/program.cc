#include "exec/program.hh"

#include "api/request.hh"
#include "common/logging.hh"
#include "mbqc/dependency.hh"
#include "mbqc/pattern_builder.hh"

namespace dcmbqc
{

ExecProgram
ExecProgram::fromCircuit(const Circuit &circuit, std::string label)
{
    ExecProgram program = fromPattern(
        buildPattern(circuit),
        label.empty() ? circuit.name() : std::move(label));
    return program;
}

ExecProgram
ExecProgram::fromPattern(Pattern pattern, std::string label)
{
    ExecProgram program;
    program.label_ = std::move(label);
    program.deps_ = realTimeDependencyGraph(pattern);
    program.pattern_ = std::move(pattern);
    return program;
}

ExecProgram
ExecProgram::fromGraph(Graph graph, Digraph deps, std::string label)
{
    ExecProgram program;
    program.label_ = std::move(label);
    program.graph_ = std::move(graph);
    program.deps_ = std::move(deps);
    return program;
}

ExecProgram
ExecProgram::fromRequest(const CompileRequest &request)
{
    switch (request.entryPoint()) {
      case CompileRequest::EntryPoint::Circuit:
        return fromCircuit(request.circuit(), request.label());
      case CompileRequest::EntryPoint::CircuitStream:
        return fromCircuit(request.stream().materialize(),
                           request.label());
      case CompileRequest::EntryPoint::Pattern:
        return fromPattern(request.pattern(), request.label());
      case CompileRequest::EntryPoint::Graph:
        return fromGraph(request.graph(), request.deps(),
                         request.label());
    }
    panic("ExecProgram::fromRequest: unknown entry point");
}

ExecProgram &
ExecProgram::withSchedule(DcMbqcResult result)
{
    compiled_ = std::move(result);
    return *this;
}

ExecProgram &
ExecProgram::withBaseline(BaselineResult baseline)
{
    baseline_ = std::move(baseline);
    return *this;
}

const Pattern &
ExecProgram::pattern() const
{
    if (!pattern_)
        panic("ExecProgram::pattern(): program has no pattern");
    return *pattern_;
}

const DcMbqcResult &
ExecProgram::schedule() const
{
    if (!compiled_)
        panic("ExecProgram::schedule(): program has no schedule");
    return *compiled_;
}

const BaselineResult &
ExecProgram::baseline() const
{
    if (!baseline_)
        panic("ExecProgram::baseline(): program has no baseline");
    return *baseline_;
}

Status
ExecProgram::validate() const
{
    const NodeId nodes = graph().numNodes();
    if (nodes == 0)
        return Status::invalidArgument(
            "program has no computation nodes");
    if (deps_.numNodes() != nodes)
        return Status::invalidArgument(
            "dependency graph covers " +
            std::to_string(deps_.numNodes()) + " nodes, graph has " +
            std::to_string(nodes));
    if (pattern_) {
        const Status angles = checkFiniteAngles(*pattern_);
        if (!angles.ok())
            return angles;
    }
    if (compiled_) {
        const auto &assignment = compiled_->partition.assignment();
        if (static_cast<NodeId>(assignment.size()) != nodes)
            return Status::invalidArgument(
                "schedule partition covers " +
                std::to_string(assignment.size()) +
                " nodes, graph has " +
                std::to_string(nodes));
    }
    if (baseline_ &&
        static_cast<NodeId>(baseline_->schedule.nodeLayer.size()) !=
            nodes)
        return Status::invalidArgument(
            "baseline schedule covers " +
            std::to_string(baseline_->schedule.nodeLayer.size()) +
            " nodes, graph has " + std::to_string(nodes));
    return Status::okStatus();
}

} // namespace dcmbqc

/**
 * @file
 * Shared gtest helpers for compiling through the pass-based
 * `CompilerDriver`: thin wrappers that assert the Status channel is
 * OK and unwrap the result payload, plus the inputs the angle checks
 * are tested with.
 */

#ifndef DCMBQC_TESTS_DRIVER_HELPERS_HH
#define DCMBQC_TESTS_DRIVER_HELPERS_HH

#include <gtest/gtest.h>

#include "api/api.hh"
#include "core/lsp_builder.hh"

namespace dcmbqc
{
namespace test
{

/** Baseline compilation through the pass-based driver. */
inline BaselineResult
compileBase(const Graph &g, const Digraph &deps,
            const SingleQpuConfig &config)
{
    auto report =
        CompilerDriver(CompileOptions::fromConfig(config))
            .compileBaseline(CompileRequest::fromGraph(g, deps));
    EXPECT_TRUE(report.ok()) << report.status().toString();
    return report->baselineResult();
}

/** Distributed compilation through the pass-based driver. */
inline DcMbqcResult
compileDc(const CompileOptions &options, const Graph &g,
          const Digraph &deps)
{
    auto report = CompilerDriver(options).compile(
        CompileRequest::fromGraph(g, deps));
    EXPECT_TRUE(report.ok()) << report.status().toString();
    return report->result();
}

/** Rebuild the LSP a compile produced, for schedule validation. */
inline LayerSchedulingProblem
rebuildLsp(const CompileOptions &options, const Graph &g,
           const Digraph &deps, const Partitioning &part)
{
    const DcMbqcConfig config = options.build().value();
    return buildLayerSchedulingProblem(g, deps, part, config.numQpus,
                                       config.grid, config.order,
                                       config.kmax)
        .value();
}

/** h 0; cz 0 1; rz 1 `angle`; h 1: gate 2 carries the angle. */
inline Circuit
rzCircuit(double angle)
{
    Circuit circuit(2, "rz");
    circuit.h(0);
    circuit.cz(0, 1);
    circuit.rz(1, angle);
    circuit.h(1);
    return circuit;
}

/** `pattern` with node u measured at `angle` instead. */
inline Pattern
withNodeAngle(const Pattern &pattern, NodeId u, double angle)
{
    std::vector<double> angles;
    std::vector<NodeId> flow;
    std::vector<QubitId> wires;
    for (NodeId v = 0; v < pattern.numNodes(); ++v) {
        angles.push_back(v == u ? angle : pattern.angle(v));
        flow.push_back(pattern.flow(v));
        wires.push_back(pattern.wire(v));
    }
    return Pattern(pattern.graph(), std::move(angles), std::move(flow),
                   std::move(wires), pattern.measurementOrder(),
                   pattern.outputs());
}

} // namespace test
} // namespace dcmbqc

#endif // DCMBQC_TESTS_DRIVER_HELPERS_HH

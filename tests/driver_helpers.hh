/**
 * @file
 * Shared gtest helpers for compiling through the pass-based
 * `CompilerDriver`: thin wrappers that assert the Status channel is
 * OK and unwrap the result payload.
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

} // namespace test
} // namespace dcmbqc

#endif // DCMBQC_TESTS_DRIVER_HELPERS_HH

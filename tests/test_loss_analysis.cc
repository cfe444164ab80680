/**
 * @file
 * Tests for the program-level photon-loss analysis under the
 * delay-line model (`buildExposure` + `analyzeNoise`): per-photon
 * storage accounting, consistency with Algorithm 1, and the analytic
 * success probability. Sampled survival is checked against it in
 * tests/test_differential.cc.
 */

#include <gtest/gtest.h>

#include <cmath>

#include "api/api.hh"
#include "driver_helpers.hh"
#include "circuit/generators.hh"
#include "core/lsp_builder.hh"
#include "mbqc/dependency.hh"
#include "mbqc/pattern_builder.hh"
#include "noise/analysis.hh"
#include "photonic/grid.hh"

namespace dcmbqc
{
namespace
{

using test::compileBase;

/** The delay-line mechanism alone at 0.2 dB/km and the given clock. */
NoiseModel
delayLine(double cycle_period_ns)
{
    NoiseConfig config;
    config.add("delay-line", {{"cycle_period_ns", cycle_period_ns}});
    auto model = buildNoiseModel(config);
    EXPECT_TRUE(model.ok()) << model.status().toString();
    return std::move(model.value());
}

/** Single-QPU exposure of `g` scored against `model`. */
NoiseAnalysis
singleQpuAnalysis(const Graph &g, const Digraph &deps,
                  const std::vector<TimeSlot> &node_time,
                  const NoiseModel &model)
{
    return analyzeNoise(buildExposure(g, deps, node_time, nullptr),
                        model);
}

TEST(LossAnalysis, FuseeStorageChargedToEarlierPhoton)
{
    Graph g(2, {{0, 1}});
    Digraph deps(2);
    const auto exposure = buildExposure(g, deps, {3, 10}, nullptr);
    EXPECT_EQ(exposure.sites[0].storageCycles, 7);
    // Photon 1 still waits one cycle for its (dependency-free)
    // measurement per Algorithm 1.
    EXPECT_EQ(exposure.sites[1].storageCycles, 1);
    EXPECT_EQ(analyzeNoise(exposure, delayLine(10.0)).maxStorageCycles,
              7);
}

TEST(LossAnalysis, MaxEqualsRequiredLifetime)
{
    // Storage max must agree with Algorithm 1's tau_photon on a
    // compiled program.
    const auto pattern = buildPattern(makeQft(6));
    const auto deps = realTimeDependencyGraph(pattern);
    SingleQpuConfig config;
    config.grid.size = gridSizeForQubits(6);
    const auto baseline =
        compileBase(pattern.graph(), deps, config);

    std::vector<TimeSlot> node_time(pattern.numNodes());
    for (NodeId u = 0; u < pattern.numNodes(); ++u)
        node_time[u] = baseline.schedule.nodePhysicalTime(u);

    const auto a =
        singleQpuAnalysis(pattern.graph(), deps, node_time,
                          delayLine(1.0));
    EXPECT_EQ(a.maxStorageCycles, baseline.requiredLifetime());
    EXPECT_GT(a.successProbability, 0.0);
    EXPECT_LE(a.successProbability, 1.0);
    EXPECT_LE(a.meanStorageCycles, a.maxStorageCycles);
}

TEST(LossAnalysis, SuccessProbabilityIsSurvivalProduct)
{
    Graph g(2, {{0, 1}});
    Digraph deps(2);
    const auto a =
        singleQpuAnalysis(g, deps, {0, 500}, delayLine(100.0));
    const LossModel model{0.2, 100.0};
    const double expected = model.survivalProbability(500) *
        model.survivalProbability(1);
    EXPECT_NEAR(a.successProbability, expected, 1e-12);
}

TEST(LossAnalysis, SlowerClockLowersSuccess)
{
    const auto pattern = buildPattern(makeQaoaMaxcut(6, 5));
    const auto deps = realTimeDependencyGraph(pattern);
    SingleQpuConfig config;
    config.grid.size = 7;
    const auto baseline =
        compileBase(pattern.graph(), deps, config);
    std::vector<TimeSlot> node_time(pattern.numNodes());
    for (NodeId u = 0; u < pattern.numNodes(); ++u)
        node_time[u] = baseline.schedule.nodePhysicalTime(u);

    const auto fast = singleQpuAnalysis(pattern.graph(), deps,
                                        node_time, delayLine(1.0));
    const auto slow = singleQpuAnalysis(pattern.graph(), deps,
                                        node_time, delayLine(100.0));
    EXPECT_GT(fast.successProbability, slow.successProbability);
}

TEST(LossAnalysis, DistributionImprovesSuccessProbability)
{
    // The end-to-end point of the paper: lower required lifetime ->
    // higher survival at a fixed clock rate.
    const auto pattern = buildPattern(makeRippleCarryAdder(16));
    const auto deps = realTimeDependencyGraph(pattern);
    const int grid = gridSizeForQubits(16);

    SingleQpuConfig base_config;
    base_config.grid.size = grid;
    const auto baseline =
        compileBase(pattern.graph(), deps, base_config);
    std::vector<TimeSlot> base_time(pattern.numNodes());
    for (NodeId u = 0; u < pattern.numNodes(); ++u)
        base_time[u] = baseline.schedule.nodePhysicalTime(u);

    const auto options =
        CompileOptions().numQpus(4).gridSize(grid);
    auto dc_report = CompilerDriver(options).compile(
        CompileRequest::fromGraph(pattern.graph(), deps));
    ASSERT_TRUE(dc_report.ok()) << dc_report.status().toString();
    const auto &dc = dc_report->result();
    const auto lsp =
        test::rebuildLsp(options, pattern.graph(), deps, dc.partition);
    std::vector<TimeSlot> dc_time(pattern.numNodes());
    for (NodeId u = 0; u < pattern.numNodes(); ++u)
        dc_time[u] =
            dc.schedule.mainStart[lsp.taskOfNode(u)] * lsp.plRatio();

    const NoiseModel model = delayLine(20.0);
    const auto base_loss =
        singleQpuAnalysis(pattern.graph(), deps, base_time, model);
    // Distributed: delay-line charges intra-QPU storage only; the
    // connectors' tau_remote storage is bounded by the scheduler.
    const auto dc_loss = analyzeNoise(
        buildExposure(pattern.graph(), deps, dc_time,
                      &dc.partition.assignment()),
        model);
    EXPECT_GT(dc_loss.successProbability,
              base_loss.successProbability);
}

} // namespace
} // namespace dcmbqc

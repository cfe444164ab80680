/**
 * @file
 * Tests for the single-QPU compiler: every node placed exactly once,
 * layer capacity respected, ordering strategies are dependency
 * consistent, bigger grids compile to fewer layers, and a node too
 * large for the grid is a Status, not an abort.
 */

#include <gtest/gtest.h>

#include "circuit/generators.hh"
#include "compiler/single_qpu.hh"
#include "mbqc/dependency.hh"
#include "mbqc/pattern_builder.hh"
#include "photonic/grid.hh"

namespace dcmbqc
{
namespace
{

struct Compiled
{
    Pattern pattern;
    Digraph deps;
    LocalSchedule schedule;
};

Compiled
compileCircuit(const Circuit &c, int grid_size,
               ResourceStateType type = ResourceStateType::Star5,
               PlacementOrder order = PlacementOrder::Creation)
{
    Compiled result{buildPattern(c), {}, {}};
    result.deps = realTimeDependencyGraph(result.pattern);
    SingleQpuConfig config;
    config.grid.size = grid_size;
    config.grid.resourceState = type;
    config.order = order;
    auto schedule = SingleQpuCompiler(config).compile(
        result.pattern.graph(), result.deps);
    EXPECT_TRUE(schedule.ok()) << schedule.status().toString();
    result.schedule = std::move(schedule).value();
    return result;
}

TEST(SingleQpu, EveryNodePlacedExactlyOnce)
{
    const auto r = compileCircuit(makeQft(4), 7);
    const auto &g = r.pattern.graph();
    std::vector<int> count(g.numNodes(), 0);
    for (const auto &layer : r.schedule.layers)
        for (NodeId u : layer.nodes)
            ++count[u];
    for (NodeId u = 0; u < g.numNodes(); ++u) {
        EXPECT_EQ(count[u], 1) << u;
        ASSERT_NE(r.schedule.nodeLayer[u], invalidLayer);
    }
}

TEST(SingleQpu, NodeLayerMatchesLayers)
{
    const auto r = compileCircuit(makeQaoaMaxcut(6, 3), 7);
    for (std::size_t t = 0; t < r.schedule.layers.size(); ++t)
        for (NodeId u : r.schedule.layers[t].nodes)
            EXPECT_EQ(r.schedule.nodeLayer[u],
                      static_cast<LayerId>(t));
}

TEST(SingleQpu, LayerCellsWithinGrid)
{
    const auto r = compileCircuit(makeVqe(6), 5);
    for (const auto &layer : r.schedule.layers) {
        EXPECT_LE(layer.computeCells + layer.routingCells, 25);
        // A layer hosts computation nodes or drains deferred
        // routing; it is never completely empty.
        EXPECT_TRUE(!layer.nodes.empty() || layer.routingCells > 0);
        EXPECT_LE(static_cast<int>(layer.nodes.size()),
                  layer.computeCells);
    }
}

TEST(SingleQpu, ExecutionTimeIsLayerCount)
{
    const auto r = compileCircuit(makeQft(4), 7);
    EXPECT_EQ(r.schedule.executionTime(),
              static_cast<int>(r.schedule.layers.size()));
    EXPECT_GT(r.schedule.executionTime(), 0);
}

TEST(SingleQpu, FusionAccounting)
{
    const auto r = compileCircuit(makeQft(4), 7);
    EXPECT_EQ(r.schedule.edgeFusions, r.pattern.graph().numEdges());
    EXPECT_GE(r.schedule.routingFusions, 0);
    EXPECT_EQ(r.schedule.totalFusions(),
              r.schedule.edgeFusions + r.schedule.routingFusions);
}

TEST(SingleQpu, BiggerGridFewerLayers)
{
    const auto small = compileCircuit(makeQft(6), 5);
    const auto large = compileCircuit(makeQft(6), 13);
    EXPECT_LT(large.schedule.executionTime(),
              small.schedule.executionTime());
}

TEST(SingleQpu, PlacementOrderIsTopological)
{
    const auto pattern = buildPattern(makeVqe(4));
    const auto deps = realTimeDependencyGraph(pattern);
    for (auto strategy : {PlacementOrder::Creation,
                          PlacementOrder::DependencyAwareRcm}) {
        const auto order =
            placementOrder(pattern.graph(), deps, strategy);
        std::vector<int> pos(order.size());
        for (std::size_t i = 0; i < order.size(); ++i)
            pos[order[i]] = static_cast<int>(i);
        for (NodeId u = 0; u < deps.numNodes(); ++u)
            for (NodeId v : deps.successors(u))
                EXPECT_LT(pos[u], pos[v]);
    }
}

TEST(SingleQpu, CreationOrderKeepsLayersMonotone)
{
    // With creation order, dependency arcs never point to an earlier
    // layer, so measuree waits stay bounded.
    const auto r = compileCircuit(makeQft(5), 7);
    for (NodeId u = 0; u < r.deps.numNodes(); ++u)
        for (NodeId v : r.deps.successors(u))
            EXPECT_LE(r.schedule.nodeLayer[u],
                      r.schedule.nodeLayer[v]);
}

TEST(SingleQpu, WorksWithAllResourceStates)
{
    for (auto type : allResourceStateTypes) {
        const auto r = compileCircuit(makeQaoaMaxcut(5, 4), 7, type);
        EXPECT_GT(r.schedule.executionTime(), 0)
            << resourceStateInfo(type).name();
    }
}

TEST(SingleQpu, EmptyGraphCompilesToNothing)
{
    Graph g;
    Digraph deps;
    SingleQpuConfig config;
    config.grid.size = 7;
    const auto schedule = SingleQpuCompiler(config).compile(g, deps);
    ASSERT_TRUE(schedule.ok());
    EXPECT_EQ(schedule->executionTime(), 0);
}

TEST(SingleQpu, SingleNodeGraph)
{
    Graph g(1);
    Digraph deps(1);
    SingleQpuConfig config;
    config.grid.size = 3;
    const auto schedule = SingleQpuCompiler(config).compile(g, deps);
    ASSERT_TRUE(schedule.ok());
    EXPECT_EQ(schedule->executionTime(), 1);
    EXPECT_EQ(schedule->nodeLayer[0], 0);
}

TEST(SingleQpu, OversizedNodeIsInvalidArgument)
{
    // A star whose hub needs more fused cells than a 3x3 grid has.
    std::vector<Edge> edges;
    for (NodeId leaf = 1; leaf < 40; ++leaf)
        edges.push_back({0, leaf});
    const Graph g(40, std::move(edges));
    Digraph deps(40);
    SingleQpuConfig config;
    config.grid.size = 3;
    const auto schedule = SingleQpuCompiler(config).compile(g, deps);
    ASSERT_FALSE(schedule.ok());
    EXPECT_EQ(schedule.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(schedule.status().message().find("node 0 of degree 39"),
              std::string::npos)
        << schedule.status().toString();
    EXPECT_NE(schedule.status().message().find("3x3"), std::string::npos);
}

TEST(SingleQpu, DeterministicOutput)
{
    const auto a = compileCircuit(makeQft(5), 7);
    const auto b = compileCircuit(makeQft(5), 7);
    EXPECT_EQ(a.schedule.nodeLayer, b.schedule.nodeLayer);
}

} // namespace
} // namespace dcmbqc

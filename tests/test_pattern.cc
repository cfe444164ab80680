/**
 * @file
 * Tests for the measurement-pattern builder and the dependency
 * graphs: flow axioms, node/edge counts, X/Z dependency structure
 * and signal shifting.
 */

#include <gtest/gtest.h>

#include "circuit/generators.hh"
#include "circuit/transpile.hh"
#include "mbqc/dependency.hh"
#include "mbqc/pattern_builder.hh"

namespace dcmbqc
{
namespace
{

TEST(PatternBuilder, SingleJ)
{
    JCircuit jc;
    jc.numQubits = 1;
    jc.ops.push_back(JOp::j(0, 0.5));
    const auto p = buildPattern(jc);
    EXPECT_EQ(p.numNodes(), 2);
    EXPECT_EQ(p.graph().numEdges(), 1);
    EXPECT_FALSE(p.isOutput(0));
    EXPECT_TRUE(p.isOutput(1));
    EXPECT_EQ(p.flow(0), 1);
    EXPECT_DOUBLE_EQ(p.angle(0), -0.5);
    EXPECT_EQ(p.outputs(), (std::vector<NodeId>{1}));
}

TEST(PatternBuilder, CzAddsEdgeBetweenWires)
{
    JCircuit jc;
    jc.numQubits = 2;
    jc.ops.push_back(JOp::cz(0, 1));
    const auto p = buildPattern(jc);
    EXPECT_EQ(p.numNodes(), 2);
    EXPECT_TRUE(p.graph().hasEdge(0, 1));
    EXPECT_TRUE(p.isOutput(0));
    EXPECT_TRUE(p.isOutput(1));
}

TEST(PatternBuilder, DoubleCzCancels)
{
    JCircuit jc;
    jc.numQubits = 2;
    jc.ops.push_back(JOp::cz(0, 1));
    jc.ops.push_back(JOp::cz(0, 1));
    const auto p = buildPattern(jc);
    EXPECT_EQ(p.graph().numEdges(), 0);
}

TEST(PatternBuilder, NodeCountIsJPlusWires)
{
    const auto c = makeQft(4);
    const auto jc = transpileToJCz(c);
    const auto p = buildPattern(jc);
    EXPECT_EQ(p.numNodes(),
              static_cast<NodeId>(jc.numJ() + c.numQubits()));
    EXPECT_EQ(p.measurementOrder().size(), jc.numJ());
    EXPECT_EQ(p.outputs().size(),
              static_cast<std::size_t>(c.numQubits()));
}

TEST(PatternBuilder, WiresTracked)
{
    const auto p = buildPattern(makeQft(3));
    for (NodeId u = 0; u < p.numNodes(); ++u) {
        EXPECT_GE(p.wire(u), 0);
        EXPECT_LT(p.wire(u), 3);
    }
    // The flow successor continues the same wire.
    for (NodeId u : p.measurementOrder())
        EXPECT_EQ(p.wire(u), p.wire(p.flow(u)));
}

TEST(PatternBuilder, MeasurementOrderIsCreationConsistent)
{
    const auto p = buildPattern(makeVqe(4));
    // f(m) values are strictly increasing along the measurement
    // order (each J creates exactly one new node).
    NodeId prev = -1;
    for (NodeId m : p.measurementOrder()) {
        EXPECT_GT(p.flow(m), prev);
        prev = p.flow(m);
    }
}

TEST(Dependency, XDepsAreWireChains)
{
    const auto p = buildPattern(makeQft(3));
    const auto deps = buildDependencyGraphs(p);
    // X-dep arcs go measured node -> its flow successor.
    for (NodeId m : p.measurementOrder()) {
        const NodeId succ = p.flow(m);
        if (!p.isOutput(succ)) {
            bool found = false;
            for (NodeId s : deps.xDeps.successors(m))
                found |= s == succ;
            EXPECT_TRUE(found) << "missing X-dep " << m << "->" << succ;
        }
        EXPECT_LE(deps.xDeps.successors(m).size(), 1u);
    }
    EXPECT_TRUE(deps.xDeps.isAcyclic());
}

TEST(Dependency, ZDepsPointForward)
{
    const auto p = buildPattern(makeQaoaMaxcut(4, 2));
    const auto deps = buildDependencyGraphs(p);
    // Position of each measured node in the measurement order.
    std::vector<int> pos(p.numNodes(), -1);
    for (std::size_t i = 0; i < p.measurementOrder().size(); ++i)
        pos[p.measurementOrder()[i]] = static_cast<int>(i);
    for (NodeId u = 0; u < p.numNodes(); ++u) {
        for (NodeId v : deps.zDeps.successors(u)) {
            ASSERT_GE(pos[u], 0);
            ASSERT_GE(pos[v], 0);
            EXPECT_LT(pos[u], pos[v])
                << "Z-dep must point forward in time";
        }
    }
    EXPECT_TRUE(deps.zDeps.isAcyclic());
}

TEST(Dependency, SignalShiftingDropsZDeps)
{
    const auto p = buildPattern(makeVqe(3));
    const auto realtime = realTimeDependencyGraph(p);
    const auto both = buildDependencyGraphs(p);
    // Signal shifting removes Z-deps; Pauli-flow simplification also
    // removes X-deps into Clifford-angle measurements, so the
    // real-time graph is a subset-chain of the raw X-deps.
    EXPECT_LT(realtime.numArcs(), both.xDeps.numArcs());
    EXPECT_GT(both.zDeps.numArcs(), 0u);
    // No arc ever targets a Clifford-angle (Pauli) measurement.
    for (NodeId u = 0; u < p.numNodes(); ++u)
        for (NodeId v : realtime.successors(u))
            EXPECT_LT(cliffordQuarterTurns(p.angle(v)), 0);
}

TEST(Dependency, RealTimeDepthBoundedByWireLength)
{
    const auto p = buildPattern(makeQft(4));
    const auto deps = realTimeDependencyGraph(p);
    std::vector<NodeId> order;
    ASSERT_TRUE(deps.topologicalSort(order));
    const auto depth = deps.longestPathTo(order);
    // The X-dep graph is a union of wire chains, so the longest path
    // is bounded by the longest wire (nodes on one wire - 1).
    std::vector<int> wire_count(4, 0);
    for (NodeId u = 0; u < p.numNodes(); ++u)
        ++wire_count[p.wire(u)];
    const int longest_wire =
        *std::max_element(wire_count.begin(), wire_count.end());
    for (NodeId u = 0; u < p.numNodes(); ++u)
        EXPECT_LT(depth[u], longest_wire);
}

TEST(Pattern, ValidateAcceptsBuilderOutput)
{
    // validate() is called inside buildPattern; additionally check a
    // few structural facts on a bigger program.
    const auto p = buildPattern(makeRippleCarryAdder(8));
    EXPECT_NO_THROW(p.validate());
    EXPECT_GT(p.numNodes(), 100);
    EXPECT_GE(p.graph().numEdges(), p.numNodes() - 1);
}

} // namespace
} // namespace dcmbqc

/**
 * @file
 * Tests for the Layer Scheduling Problem model (Definition IV.1):
 * instance construction, objective evaluation (tau_local /
 * tau_remote) and the feasibility validator.
 */

#include <gtest/gtest.h>

#include <type_traits>
#include <utility>

#include "api/options.hh"
#include "circuit/generators.hh"
#include "core/lsp_builder.hh"
#include "mbqc/dependency.hh"
#include "mbqc/pattern_builder.hh"

namespace dcmbqc
{
namespace
{

/**
 * A small 2-QPU instance: QPU 0 has layers {0,1} holding nodes
 * {0,1} and {2}; QPU 1 has layers {0,1} holding {3} and {4,5}.
 * Local edges 0-1 and 4-5; one cut edge 2-3 => sync task 0. The
 * graphs are static: the LSP borrows them.
 */
LayerSchedulingProblem
tinyInstance(int kmax = 2)
{
    std::vector<MainTask> mains(4);
    mains[0] = {0, 0, {0, 1}};
    mains[1] = {0, 1, {2}};
    mains[2] = {1, 0, {3}};
    mains[3] = {1, 1, {4, 5}};

    // The cut edge 2-3 joins tasks on two QPUs: no fusee span.
    static const Graph graph(6, {{0, 1}, {2, 3}, {4, 5}});
    static const Digraph deps(6, {{0, 2}, {3, 4}});

    return LayerSchedulingProblem(std::move(mains), &graph, &deps, 2,
                                  kmax);
}

TEST(Lsp, InstanceAccessors)
{
    const auto lsp = tinyInstance();
    EXPECT_EQ(lsp.numQpus(), 2);
    EXPECT_EQ(lsp.kmax(), 2);
    EXPECT_EQ(lsp.mainTasks().size(), 4u);
    EXPECT_EQ(lsp.syncTasks().size(), 1u);
    EXPECT_EQ(lsp.qpuTasks(0), (std::vector<int>{0, 1}));
    EXPECT_EQ(lsp.qpuTasks(1), (std::vector<int>{2, 3}));
    EXPECT_EQ(lsp.taskOfNode(0), 0);
    EXPECT_EQ(lsp.taskOfNode(2), 1);
    EXPECT_EQ(lsp.taskOfNode(5), 3);
    ASSERT_EQ(lsp.syncTasks().size(), 1u);
    EXPECT_EQ(lsp.syncTasks()[0].taskA, 1);
    EXPECT_EQ(lsp.syncTasks()[0].taskB, 2);
    EXPECT_EQ(lsp.syncTasks()[0].u, 2);
    EXPECT_EQ(lsp.syncTasks()[0].v, 3);
    EXPECT_EQ(lsp.syncsOfTask(1), (std::vector<int>{0}));
    EXPECT_EQ(lsp.syncsOfTask(2), (std::vector<int>{0}));
    EXPECT_TRUE(lsp.syncsOfTask(0).empty());
    EXPECT_EQ(lsp.qpuOfNode(3), 1);
    EXPECT_TRUE(lsp.isLocal(lsp.graph().edge(0)));
    EXPECT_FALSE(lsp.isLocal(lsp.graph().edge(1)));
    EXPECT_TRUE(lsp.isLocal(lsp.graph().edge(2)));
}

TEST(Lsp, BorrowsThePatternGraphAndDependencies)
{
    // The instance reads the pattern's graph and the dependency graph
    // in place; a cut edge is exactly an edge between two parts.
    const Pattern pattern = buildPattern(makeQft(8));
    const Digraph deps = realTimeDependencyGraph(pattern);
    const Graph &g = pattern.graph();
    std::vector<int> assign(g.numNodes());
    for (NodeId u = 0; u < g.numNodes(); ++u)
        assign[u] = static_cast<int>(u) % 2;
    const DcMbqcConfig config =
        CompileOptions().numQpus(2).gridSize(7).build().value();
    const auto lsp = buildLayerSchedulingProblem(
        g, deps, Partitioning(assign, 2), 2, config.grid, config.order,
        config.kmax);
    ASSERT_TRUE(lsp.ok()) << lsp.status().toString();
    EXPECT_EQ(&lsp->graph(), &pattern.graph());
    EXPECT_EQ(&lsp->deps(), &deps);

    std::size_t cut = 0;
    for (const Edge &e : g.edges()) {
        EXPECT_EQ(lsp->isLocal(e), assign[e.u] == assign[e.v]);
        if (lsp->isLocal(e))
            continue;
        ASSERT_LT(cut, lsp->syncTasks().size());
        const SyncTask &sync = lsp->syncTasks()[cut++];
        EXPECT_EQ(sync.u, e.u);
        EXPECT_EQ(sync.v, e.v);
        EXPECT_EQ(sync.taskA, lsp->taskOfNode(e.u));
        EXPECT_EQ(sync.taskB, lsp->taskOfNode(e.v));
    }
    EXPECT_EQ(cut, lsp->syncTasks().size());
    for (NodeId u = 0; u < g.numNodes(); ++u)
        EXPECT_EQ(lsp->qpuOfNode(u), assign[u]);
}

/** True when buildLayerSchedulingProblem accepts a G and a D. */
template <typename G, typename D, typename = void>
struct BuildsFrom : std::false_type
{
};
template <typename G, typename D>
struct BuildsFrom<
    G, D,
    std::void_t<decltype(buildLayerSchedulingProblem(
        std::declval<G>(), std::declval<D>(),
        std::declval<const Partitioning &>(), 2,
        std::declval<const GridSpec &>(), PlacementOrder{}, 4))>>
    : std::true_type
{
};

// The LSP keeps the graphs' addresses, so a temporary graph or
// dependency graph, which would dangle, does not compile.
static_assert(BuildsFrom<const Graph &, const Digraph &>::value);
static_assert(BuildsFrom<Graph &, Digraph &>::value);
static_assert(!BuildsFrom<Graph, const Digraph &>::value);
static_assert(!BuildsFrom<const Graph &, Digraph>::value);
static_assert(!BuildsFrom<Graph, Digraph>::value);

TEST(Lsp, EvaluateComputesComponents)
{
    const auto lsp = tinyInstance();
    Schedule s;
    s.mainStart = {0, 1, 0, 1};
    s.syncStart = {2};

    const auto m = evaluateSchedule(lsp, s);
    // Local fusee edges are intra-layer (span 0); deps: 0(t0)->2(t1)
    // wait 1... MTime[0]=1, MTime[2]=max(2, 2)=2, wait=1.
    EXPECT_EQ(m.tauLocal, 1);
    // Sync at 2, tasks at 1 and 0: max(|2-1|, |2-0|) = 2.
    EXPECT_EQ(m.tauRemote, 2);
    EXPECT_EQ(m.tauPhoton(), 2);
    EXPECT_EQ(m.makespan, 3);
}

TEST(Lsp, EvaluateFuseeSpans)
{
    auto lsp = tinyInstance();
    Schedule s;
    s.mainStart = {0, 5, 0, 1};
    s.syncStart = {1};
    const auto m = evaluateSchedule(lsp, s);
    // Node 0 at t0, node 2 at t5: dep wait = max chain.
    // Fusee edges: 0-1 same task (0), 4-5 same task (0).
    // Measuree: MTime[0]=1, MTime[2]=max(5+1, 1+1)=6 wait 1;
    // actually MTime[2] = max(2, 6)... node 2 time=5 => MTime=6,
    // wait=1. Deps 3->4: MTime[3]=1, MTime[4]=max(2,2)=2, wait 1.
    EXPECT_EQ(m.tauLocal, 1);
    EXPECT_EQ(m.tauRemote, 4); // |1-5| for taskA=1
}

TEST(Lsp, ValidatorAcceptsFeasible)
{
    const auto lsp = tinyInstance();
    Schedule s;
    s.mainStart = {0, 1, 0, 1};
    s.syncStart = {2};
    std::string why;
    EXPECT_TRUE(validateSchedule(lsp, s, &why)) << why;
}

TEST(Lsp, ValidatorRejectsMainOrderViolation)
{
    const auto lsp = tinyInstance();
    Schedule s;
    s.mainStart = {1, 0, 0, 1}; // QPU 0 reversed
    s.syncStart = {2};
    std::string why;
    EXPECT_FALSE(validateSchedule(lsp, s, &why));
    EXPECT_NE(why.find("order"), std::string::npos);
}

TEST(Lsp, ValidatorRejectsMainSyncOverlap)
{
    const auto lsp = tinyInstance();
    Schedule s;
    s.mainStart = {0, 1, 0, 1};
    s.syncStart = {1}; // collides with mains at t=1 on both QPUs
    EXPECT_FALSE(validateSchedule(lsp, s));
}

TEST(Lsp, ValidatorRejectsTwoMainsSameSlot)
{
    const auto lsp = tinyInstance();
    Schedule s;
    s.mainStart = {0, 0, 0, 1}; // QPU0 runs two mains at t=0
    s.syncStart = {2};
    EXPECT_FALSE(validateSchedule(lsp, s));
}

TEST(Lsp, ValidatorEnforcesKmax)
{
    // Two sync tasks between the same QPUs at the same slot with
    // kmax=1 must be rejected; with kmax=2 accepted.
    // Two parallel cut edges: two sync tasks.
    const Graph graph(2, {{0, 1}, {0, 1}});
    const Digraph deps(2);
    auto make = [&](int kmax) {
        std::vector<MainTask> mains(2);
        mains[0] = {0, 0, {0}};
        mains[1] = {1, 0, {1}};
        return LayerSchedulingProblem(std::move(mains), &graph, &deps, 2,
                                      kmax);
    };
    Schedule s;
    s.mainStart = {0, 0};
    s.syncStart = {1, 1};
    EXPECT_FALSE(validateSchedule(make(1), s));
    EXPECT_TRUE(validateSchedule(make(2), s));
}

TEST(Lsp, ValidatorRejectsNegativeStart)
{
    const auto lsp = tinyInstance();
    Schedule s;
    s.mainStart = {-1, 1, 0, 1};
    s.syncStart = {2};
    EXPECT_FALSE(validateSchedule(lsp, s));
}

} // namespace
} // namespace dcmbqc

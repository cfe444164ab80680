/**
 * @file
 * Tests for the Layer Scheduling Problem model (Definition IV.1):
 * instance construction, objective evaluation (tau_local /
 * tau_remote) and the feasibility validator.
 */

#include <gtest/gtest.h>

#include "core/lsp.hh"

namespace dcmbqc
{
namespace
{

/**
 * A small 2-QPU instance: QPU 0 has layers {0,1} holding nodes
 * {0,1} and {2}; QPU 1 has layers {0,1} holding {3} and {4,5}.
 * Local edges 0-1 and 4-5; one cut edge 2-3 => sync task 0.
 */
LayerSchedulingProblem
tinyInstance(int kmax = 2)
{
    std::vector<MainTask> mains(4);
    mains[0] = {0, 0, {0, 1}};
    mains[1] = {0, 1, {2}};
    mains[2] = {1, 0, {3}};
    mains[3] = {1, 1, {4, 5}};

    std::vector<SyncTask> syncs(1);
    syncs[0] = {1, 2, 2, 3};

    Graph local(6, {{0, 1}, {4, 5}});
    // The cut edge 2-3 is deliberately absent from local edges.

    Digraph deps(6);
    deps.addArc(0, 2);
    deps.addArc(3, 4);

    return LayerSchedulingProblem(std::move(mains), std::move(syncs),
                                  std::move(local), std::move(deps), 2,
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
    EXPECT_EQ(lsp.syncsOfTask(1), (std::vector<int>{0}));
    EXPECT_EQ(lsp.syncsOfTask(2), (std::vector<int>{0}));
    EXPECT_TRUE(lsp.syncsOfTask(0).empty());
}

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
    auto make = [&](int kmax) {
        std::vector<MainTask> mains(2);
        mains[0] = {0, 0, {0}};
        mains[1] = {1, 0, {1}};
        std::vector<SyncTask> syncs(2);
        syncs[0] = {0, 1, 0, 1};
        syncs[1] = {0, 1, 0, 1};
        Graph local(2);
        Digraph deps(2);
        return LayerSchedulingProblem(std::move(mains),
                                      std::move(syncs),
                                      std::move(local),
                                      std::move(deps), 2, kmax);
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

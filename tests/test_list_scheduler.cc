/**
 * @file
 * Tests for the priority-based list scheduler: feasibility on every
 * instance, paper-default priorities, pinning behavior (BDIR's
 * rescheduling primitive), and parallelism across QPUs.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/list_scheduler.hh"

namespace dcmbqc
{
namespace
{

/** Random LSP instance with n QPUs, m layers each, s sync tasks. */
LayerSchedulingProblem
randomInstance(int n, int m, int s, int kmax, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<MainTask> mains;
    std::vector<std::vector<int>> task_ids(n);
    NodeId next_node = 0;
    for (int qpu = 0; qpu < n; ++qpu) {
        for (int j = 0; j < m; ++j) {
            MainTask t;
            t.qpu = qpu;
            t.index = j;
            t.nodes = {next_node++};
            task_ids[qpu].push_back(static_cast<int>(mains.size()));
            mains.push_back(std::move(t));
        }
    }
    std::vector<SyncTask> syncs;
    for (int k = 0; k < s; ++k) {
        const int qa = static_cast<int>(rng.uniformInt(n));
        int qb = qa;
        while (qb == qa)
            qb = static_cast<int>(rng.uniformInt(n));
        SyncTask sync;
        sync.taskA = task_ids[qa][rng.uniformInt(m)];
        sync.taskB = task_ids[qb][rng.uniformInt(m)];
        sync.u = mains[sync.taskA].nodes[0];
        sync.v = mains[sync.taskB].nodes[0];
        syncs.push_back(sync);
    }
    Graph local(next_node);
    Digraph deps(next_node);
    return LayerSchedulingProblem(std::move(mains), std::move(syncs),
                                  std::move(local), std::move(deps), n,
                                  kmax);
}

TEST(ListScheduler, FeasibleOnRandomInstances)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const auto lsp = randomInstance(4, 10, 25, 4, seed);
        const auto s = listScheduleDefault(lsp);
        std::string why;
        EXPECT_TRUE(validateSchedule(lsp, s, &why))
            << "seed " << seed << ": " << why;
    }
}

TEST(ListScheduler, AllTasksScheduled)
{
    const auto lsp = randomInstance(3, 8, 12, 2, 3);
    const auto s = listScheduleDefault(lsp);
    for (TimeSlot t : s.mainStart)
        EXPECT_GE(t, 0);
    for (TimeSlot t : s.syncStart)
        EXPECT_GE(t, 0);
}

TEST(ListScheduler, ParallelismAcrossQpus)
{
    // n QPUs with m layers each and no syncs must finish in exactly
    // m slots (all QPUs run in parallel).
    const auto lsp = randomInstance(4, 12, 0, 4, 5);
    const auto s = listScheduleDefault(lsp);
    EXPECT_EQ(s.makespan, 12);
}

TEST(ListScheduler, SyncTasksShareSlots)
{
    // 2 QPUs, 1 layer each, 8 syncs between them, kmax=4: the syncs
    // need only ceil(8/4)=2 connection slots.
    auto lsp = randomInstance(2, 1, 8, 4, 7);
    const auto s = listScheduleDefault(lsp);
    std::string why;
    EXPECT_TRUE(validateSchedule(lsp, s, &why)) << why;
    EXPECT_LE(s.makespan, 1 + 2);
}

TEST(ListScheduler, KmaxOneSerializesSyncs)
{
    auto lsp = randomInstance(2, 1, 6, 1, 9);
    const auto s = listScheduleDefault(lsp);
    EXPECT_TRUE(validateSchedule(lsp, s));
    EXPECT_GE(s.makespan, 1 + 6);
}

TEST(ListScheduler, DefaultPrioritiesInterleaveSyncs)
{
    // A sync associated with early layers should be scheduled near
    // them, not at the end.
    std::vector<MainTask> mains;
    for (int j = 0; j < 10; ++j)
        mains.push_back({0, j, {static_cast<NodeId>(j)}});
    for (int j = 0; j < 10; ++j)
        mains.push_back({1, j, {static_cast<NodeId>(10 + j)}});
    std::vector<SyncTask> syncs(1);
    syncs[0] = {1, 11, 1, 11}; // both layer index 1
    Graph local(20);
    Digraph deps(20);
    LayerSchedulingProblem lsp(std::move(mains), std::move(syncs),
                               std::move(local), std::move(deps), 2, 4);
    const auto s = listScheduleDefault(lsp);
    EXPECT_TRUE(validateSchedule(lsp, s));
    EXPECT_LE(s.syncStart[0], 4);
}

TEST(ListScheduler, PinMovesTask)
{
    const auto lsp = randomInstance(2, 6, 4, 2, 11);
    std::vector<double> mp(lsp.mainTasks().size());
    for (std::size_t i = 0; i < mp.size(); ++i)
        mp[i] = lsp.mainTasks()[i].index;
    std::vector<double> sp(lsp.syncTasks().size(), 3.0);

    TaskPin pin;
    pin.isMain = false;
    pin.task = 0;
    pin.slot = 9;
    const auto s = listSchedule(lsp, mp, sp, pin, StreamWindow{}).value();
    EXPECT_TRUE(validateSchedule(lsp, s));
    EXPECT_GE(s.syncStart[0], 9);
}

TEST(ListScheduler, PinMainRespectsOrder)
{
    // Pin the 3rd main task of QPU 0 to slot 0: impossible (two
    // predecessors must run first), so it lands at the earliest
    // feasible slot >= 0 AFTER its predecessors.
    const auto lsp = randomInstance(2, 5, 0, 2, 13);
    std::vector<double> mp(lsp.mainTasks().size());
    for (std::size_t i = 0; i < mp.size(); ++i)
        mp[i] = lsp.mainTasks()[i].index;
    std::vector<double> sp;

    TaskPin pin;
    pin.isMain = true;
    pin.task = 2; // QPU 0, index 2
    pin.slot = 0;
    const auto s = listSchedule(lsp, mp, sp, pin, StreamWindow{}).value();
    EXPECT_TRUE(validateSchedule(lsp, s));
    EXPECT_EQ(s.mainStart[2], 2);
}

TEST(ListScheduler, PinMainToLateSlot)
{
    const auto lsp = randomInstance(1, 4, 0, 2, 15);
    std::vector<double> mp{0, 1, 2, 3};
    TaskPin pin;
    pin.isMain = true;
    pin.task = 1;
    pin.slot = 10;
    const auto s = listSchedule(lsp, mp, {}, pin, StreamWindow{}).value();
    EXPECT_TRUE(validateSchedule(lsp, s));
    EXPECT_EQ(s.mainStart[1], 10);
    // Successor tasks must still come after.
    EXPECT_GT(s.mainStart[2], 10);
    EXPECT_GT(s.mainStart[3], s.mainStart[2]);
}

TEST(ListScheduler, EmptyInstance)
{
    Graph local(0);
    Digraph deps(0);
    LayerSchedulingProblem lsp({}, {}, std::move(local),
                               std::move(deps), 2, 4);
    const auto s = listScheduleDefault(lsp);
    EXPECT_EQ(s.makespan, 0);
}

} // namespace
} // namespace dcmbqc

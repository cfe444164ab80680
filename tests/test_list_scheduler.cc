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

/**
 * s random cut edges between n QPUs of m layers with one node each:
 * node q * m + j is layer j of QPU q.
 */
Graph
randomCutGraph(int n, int m, int s, std::uint64_t seed)
{
    Rng rng(seed);
    std::vector<Edge> edges;
    for (int k = 0; k < s; ++k) {
        const int qa = static_cast<int>(rng.uniformInt(n));
        int qb = qa;
        while (qb == qa)
            qb = static_cast<int>(rng.uniformInt(n));
        const auto u = static_cast<NodeId>(qa * m + rng.uniformInt(m));
        const auto v = static_cast<NodeId>(qb * m + rng.uniformInt(m));
        edges.push_back({u, v});
    }
    return Graph(n * m, std::move(edges));
}

/** One main task per layer, holding that layer's node. */
std::vector<MainTask>
layerTasks(int n, int m)
{
    std::vector<MainTask> mains;
    for (int qpu = 0; qpu < n; ++qpu)
        for (int j = 0; j < m; ++j)
            mains.push_back({qpu, j, {static_cast<NodeId>(qpu * m + j)}});
    return mains;
}

/**
 * Random LSP instance with n QPUs, m layers each and s sync tasks,
 * with the graphs it borrows (no dependencies).
 */
struct RandomInstance
{
    RandomInstance(int n, int m, int s, int kmax, std::uint64_t seed)
        : graph(randomCutGraph(n, m, s, seed)), deps(n * m),
          lsp(layerTasks(n, m), &graph, &deps, n, kmax)
    {
    }
    RandomInstance(const RandomInstance &) = delete;
    RandomInstance &operator=(const RandomInstance &) = delete;

    const Graph graph;
    const Digraph deps;
    const LayerSchedulingProblem lsp;
};

TEST(ListScheduler, FeasibleOnRandomInstances)
{
    for (std::uint64_t seed = 1; seed <= 10; ++seed) {
        const RandomInstance instance(4, 10, 25, 4, seed);
        const LayerSchedulingProblem &lsp = instance.lsp;
        const auto s = listScheduleDefault(lsp);
        std::string why;
        EXPECT_TRUE(validateSchedule(lsp, s, &why))
            << "seed " << seed << ": " << why;
    }
}

TEST(ListScheduler, AllTasksScheduled)
{
    const RandomInstance instance(3, 8, 12, 2, 3);
    const LayerSchedulingProblem &lsp = instance.lsp;
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
    const RandomInstance instance(4, 12, 0, 4, 5);
    const LayerSchedulingProblem &lsp = instance.lsp;
    const auto s = listScheduleDefault(lsp);
    EXPECT_EQ(s.makespan, 12);
}

TEST(ListScheduler, SyncTasksShareSlots)
{
    // 2 QPUs, 1 layer each, 8 syncs between them, kmax=4: the syncs
    // need only ceil(8/4)=2 connection slots.
    const RandomInstance instance(2, 1, 8, 4, 7);
    const LayerSchedulingProblem &lsp = instance.lsp;
    const auto s = listScheduleDefault(lsp);
    std::string why;
    EXPECT_TRUE(validateSchedule(lsp, s, &why)) << why;
    EXPECT_LE(s.makespan, 1 + 2);
}

TEST(ListScheduler, KmaxOneSerializesSyncs)
{
    const RandomInstance instance(2, 1, 6, 1, 9);
    const LayerSchedulingProblem &lsp = instance.lsp;
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
    const Graph graph(20, {{1, 11}}); // both layer index 1
    const Digraph deps(20);
    const LayerSchedulingProblem lsp(std::move(mains), &graph, &deps, 2,
                                     4);
    const auto s = listScheduleDefault(lsp);
    EXPECT_TRUE(validateSchedule(lsp, s));
    EXPECT_LE(s.syncStart[0], 4);
}

TEST(ListScheduler, PinMovesTask)
{
    const RandomInstance instance(2, 6, 4, 2, 11);
    const LayerSchedulingProblem &lsp = instance.lsp;
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
    const RandomInstance instance(2, 5, 0, 2, 13);
    const LayerSchedulingProblem &lsp = instance.lsp;
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
    const RandomInstance instance(1, 4, 0, 2, 15);
    const LayerSchedulingProblem &lsp = instance.lsp;
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
    const Graph graph(0);
    const Digraph deps(0);
    const LayerSchedulingProblem lsp({}, &graph, &deps, 2, 4);
    const auto s = listScheduleDefault(lsp);
    EXPECT_EQ(s.makespan, 0);
}

} // namespace
} // namespace dcmbqc

/**
 * @file
 * Tests for BDIR (Algorithm 3): the neighborhood generator always
 * produces feasible schedules, the SA loop never returns something
 * worse than its input, it fixes planted bottlenecks, and it builds
 * a new neighbour only after accepting a move.
 */

#include <gtest/gtest.h>

#include "common/rng.hh"
#include "core/bdir.hh"
#include "core/list_scheduler.hh"

namespace dcmbqc
{
namespace
{

/** 2-QPU instance with an adversarial sync between distant layers. */
LayerSchedulingProblem
bottleneckInstance()
{
    std::vector<MainTask> mains;
    for (int j = 0; j < 12; ++j)
        mains.push_back({0, j, {static_cast<NodeId>(j)}});
    for (int j = 0; j < 12; ++j)
        mains.push_back({1, j, {static_cast<NodeId>(12 + j)}});

    // A fusee pair within QPU0 spanning layers 0 and 11. Cut edge
    // 1-22 syncs QPU0 layer 1 with QPU1 layer 10: any slot is far from
    // one of them unless the schedule shifts the layers. Cut edge 5-17
    // is a benign nearby sync. The graphs are static: the LSP borrows
    // them.
    static const Graph graph(24, {{0, 11}, {1, 22}, {5, 17}});
    static const Digraph deps(24);
    return LayerSchedulingProblem(std::move(mains), &graph, &deps, 2, 4);
}

/** Two one-layer QPUs joined by one sync task. */
LayerSchedulingProblem
twoLayerSyncInstance()
{
    std::vector<MainTask> mains;
    mains.push_back({0, 0, {0}});
    mains.push_back({1, 0, {1}});
    static const Graph graph(2, {{0, 1}});
    static const Digraph deps(2);
    return LayerSchedulingProblem(std::move(mains), &graph, &deps, 2, 4);
}

/** A neighbour is built first and then only after an accepted move. */
void
expectNeighborsPerAcceptedMove(const BdirStats &stats)
{
    EXPECT_GE(stats.neighborsBuilt, stats.acceptedMoves);
    EXPECT_LE(stats.neighborsBuilt, stats.acceptedMoves + 1);
}

TEST(Bdir, NeighborIsAlwaysFeasible)
{
    const auto lsp = bottleneckInstance();
    Schedule current = listScheduleDefault(lsp);
    for (int i = 0; i < 10; ++i) {
        current = generateNeighbor(lsp, current);
        std::string why;
        ASSERT_TRUE(validateSchedule(lsp, current, &why)) << why;
    }
}

TEST(Bdir, NeverWorseThanInitial)
{
    const auto lsp = bottleneckInstance();
    const auto initial = listScheduleDefault(lsp);
    const int before = evaluateSchedule(lsp, initial).tauPhoton();

    BdirStats stats;
    const auto optimized = bdirOptimize(lsp, initial, {}, &stats);
    const int after = evaluateSchedule(lsp, optimized).tauPhoton();

    EXPECT_LE(after, before);
    EXPECT_EQ(stats.initialLifetime, before);
    EXPECT_EQ(stats.finalLifetime, after);
    EXPECT_TRUE(validateSchedule(lsp, optimized));
    expectNeighborsPerAcceptedMove(stats);
}

TEST(Bdir, StatsAreConsistent)
{
    const auto lsp = bottleneckInstance();
    const auto initial = listScheduleDefault(lsp);
    BdirConfig config;
    config.maxIterations = 15;
    BdirStats stats;
    bdirOptimize(lsp, initial, config, &stats);
    EXPECT_EQ(stats.iterations, 15);
    EXPECT_GE(stats.acceptedMoves, 0);
    EXPECT_LE(stats.acceptedMoves, 15);
    EXPECT_LE(stats.improvedMoves, stats.acceptedMoves);
    expectNeighborsPerAcceptedMove(stats);
}

TEST(Bdir, ImprovesPlantedRemoteBottleneck)
{
    // A hand-built schedule with the sync at a terrible slot: BDIR
    // must find the balance point.
    const auto lsp = twoLayerSyncInstance();

    Schedule bad;
    bad.mainStart = {0, 0};
    bad.syncStart = {20};
    bad.makespan = 21;
    ASSERT_TRUE(validateSchedule(lsp, bad));
    EXPECT_EQ(evaluateSchedule(lsp, bad).tauRemote, 20);

    BdirStats stats;
    const auto fixed = bdirOptimize(lsp, bad, {}, &stats);
    EXPECT_LE(evaluateSchedule(lsp, fixed).tauPhoton(), 2);
    expectNeighborsPerAcceptedMove(stats);
}

TEST(Bdir, RejectedNeighborIsKept)
{
    // The list schedule is optimal (tau 1): both layers at slot 0,
    // the sync at slot 1. Pinning the sync between them pushes one
    // layer later, so the only neighbour is worse, and at this
    // temperature every move is rejected. The loop must score that
    // one neighbour 20 times, not rebuild it.
    const auto lsp = twoLayerSyncInstance();
    const auto initial = listScheduleDefault(lsp);
    ASSERT_EQ(evaluateSchedule(lsp, initial).tauPhoton(), 1);
    ASSERT_GT(evaluateSchedule(lsp, generateNeighbor(lsp, initial))
                  .tauPhoton(),
              1);

    BdirConfig config;
    config.initialTemperature = 0.01;
    BdirStats stats;
    const auto out = bdirOptimize(lsp, initial, config, &stats);
    EXPECT_EQ(stats.iterations, 20);
    EXPECT_EQ(stats.acceptedMoves, 0);
    EXPECT_EQ(stats.neighborsBuilt, 1);
    EXPECT_EQ(out.mainStart, initial.mainStart);
    EXPECT_EQ(out.syncStart, initial.syncStart);
}

TEST(Bdir, DeterministicForSeed)
{
    const auto lsp = bottleneckInstance();
    const auto initial = listScheduleDefault(lsp);
    BdirConfig config;
    config.seed = 123;
    BdirStats stats_a, stats_b;
    const auto a = bdirOptimize(lsp, initial, config, &stats_a);
    const auto b = bdirOptimize(lsp, initial, config, &stats_b);
    EXPECT_EQ(a.mainStart, b.mainStart);
    EXPECT_EQ(a.syncStart, b.syncStart);
    EXPECT_EQ(stats_a.neighborsBuilt, stats_b.neighborsBuilt);
    expectNeighborsPerAcceptedMove(stats_a);
}

TEST(Bdir, HandlesInstanceWithoutSyncs)
{
    std::vector<MainTask> mains;
    for (int j = 0; j < 6; ++j)
        mains.push_back({0, j, {static_cast<NodeId>(j)}});
    const Graph graph(6, {{0, 5}});
    const Digraph deps(6);
    const LayerSchedulingProblem lsp(std::move(mains), &graph, &deps, 1,
                                     4);
    const auto initial = listScheduleDefault(lsp);
    BdirStats stats;
    const auto out = bdirOptimize(lsp, initial, {}, &stats);
    EXPECT_TRUE(validateSchedule(lsp, out));
    expectNeighborsPerAcceptedMove(stats);
}

} // namespace
} // namespace dcmbqc

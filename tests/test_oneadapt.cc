/**
 * @file
 * Tests for the OneAdapt-style dynamic refresh pass: the lifetime is
 * capped, execution-time overhead is charged for every refresh, and
 * schedules already under the cap are untouched.
 */

#include <gtest/gtest.h>

#include "api/api.hh"
#include "driver_helpers.hh"
#include "circuit/generators.hh"
#include "core/oneadapt.hh"
#include "mbqc/dependency.hh"
#include "mbqc/pattern_builder.hh"
#include "photonic/grid.hh"

namespace dcmbqc
{
namespace
{

using test::compileBase;

TEST(OneAdapt, CapsLifetime)
{
    const auto pattern = buildPattern(makeQft(10));
    const auto deps = realTimeDependencyGraph(pattern);
    SingleQpuConfig config;
    config.grid.size = gridSizeForQubits(10);
    const auto baseline =
        compileBase(pattern.graph(), deps, config);

    RefreshConfig refresh;
    refresh.lifetimeCap = 10;
    ASSERT_GT(baseline.requiredLifetime(), refresh.lifetimeCap);

    const auto r = applyDynamicRefresh(pattern.graph(), deps,
                                       baseline.schedule, refresh);
    EXPECT_EQ(r.requiredLifetime, 10);
    EXPECT_GT(r.refreshCount, 0);
    EXPECT_GE(r.extraLayers, 1);
    EXPECT_GT(r.executionTime, baseline.executionTime());
}

TEST(OneAdapt, NoOpWhenUnderCap)
{
    const auto pattern = buildPattern(makeQft(4));
    const auto deps = realTimeDependencyGraph(pattern);
    SingleQpuConfig config;
    config.grid.size = 9;
    const auto baseline =
        compileBase(pattern.graph(), deps, config);

    RefreshConfig refresh;
    refresh.lifetimeCap = baseline.requiredLifetime() + 5;
    const auto r = applyDynamicRefresh(pattern.graph(), deps,
                                       baseline.schedule, refresh);
    EXPECT_EQ(r.refreshCount, 0);
    EXPECT_EQ(r.extraLayers, 0);
    EXPECT_EQ(r.executionTime, baseline.executionTime());
    EXPECT_EQ(r.requiredLifetime, baseline.requiredLifetime());
}

TEST(OneAdapt, TighterCapMoreRefreshes)
{
    const auto pattern = buildPattern(makeVqe(8));
    const auto deps = realTimeDependencyGraph(pattern);
    SingleQpuConfig config;
    config.grid.size = 7;
    const auto baseline =
        compileBase(pattern.graph(), deps, config);

    RefreshConfig loose;
    loose.lifetimeCap = 30;
    RefreshConfig tight;
    tight.lifetimeCap = 5;
    const auto r_loose = applyDynamicRefresh(pattern.graph(), deps,
                                             baseline.schedule, loose);
    const auto r_tight = applyDynamicRefresh(pattern.graph(), deps,
                                             baseline.schedule, tight);
    EXPECT_GE(r_tight.refreshCount, r_loose.refreshCount);
    EXPECT_GE(r_tight.executionTime, r_loose.executionTime);
    EXPECT_LE(r_tight.requiredLifetime, r_loose.requiredLifetime);
}

TEST(OneAdapt, RefreshCountFormula)
{
    // Hand instance: one edge spanning 25 layers with cap 10 needs
    // ceil(25/10) - 1 = 2 refreshes.
    Graph g(2, {{0, 1}});
    Digraph deps(2);
    LocalSchedule schedule;
    schedule.grid.size = 5;
    schedule.grid.plRatio = 1; // keep the arithmetic in layers
    schedule.nodeLayer = {0, 25};
    schedule.layers.resize(26);
    RefreshConfig cfg;
    cfg.lifetimeCap = 10;
    const auto r = applyDynamicRefresh(g, deps, schedule, cfg);
    EXPECT_EQ(r.refreshCount, 2);
    EXPECT_EQ(r.requiredLifetime, 10);
}

TEST(OneAdapt, BoundaryReservationShrinksGrid)
{
    // Section V-C: the distributed OneAdapt comparison reserves the
    // boundary, reducing the usable grid by 2 per dimension.
    const auto pattern = buildPattern(makeQft(8));
    const auto deps = realTimeDependencyGraph(pattern);

    SingleQpuConfig full;
    full.grid.size = gridSizeForQubits(8);
    SingleQpuConfig reserved = full;
    reserved.grid.reservedBoundary = 1;

    const auto a = compileBase(pattern.graph(), deps, full);
    const auto b = compileBase(pattern.graph(), deps, reserved);
    EXPECT_GE(b.executionTime(), a.executionTime());
}

} // namespace
} // namespace dcmbqc

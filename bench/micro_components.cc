/**
 * @file
 * google-benchmark micro-benchmarks for the framework's core
 * kernels: multilevel partitioning, adaptive partitioning
 * (Algorithm 2), single-QPU placement, required-lifetime evaluation
 * (Algorithm 1), list scheduling and one BDIR neighborhood step.
 */

#include <benchmark/benchmark.h>

#include "bench/bench_common.hh"
#include "core/bdir.hh"
#include "core/list_scheduler.hh"
#include "core/lsp_builder.hh"
#include "partition/multilevel.hh"

using namespace dcmbqc;
using namespace dcmbqc::bench;

namespace
{

const Prepared &
qft36()
{
    static const Prepared p = prepare(Family::Qft, 36);
    return p;
}

void
BM_MultilevelPartition(benchmark::State &state)
{
    const auto &p = qft36();
    MultilevelConfig config;
    config.k = static_cast<int>(state.range(0));
    for (auto _ : state) {
        auto part = MultilevelSearch(p.pattern.graph()).partition(config);
        benchmark::DoNotOptimize(part);
    }
}
BENCHMARK(BM_MultilevelPartition)->Arg(2)->Arg(4)->Arg(8);

void
BM_AdaptivePartition(benchmark::State &state)
{
    const auto &p = qft36();
    AdaptiveConfig config;
    config.k = 4;
    for (auto _ : state) {
        auto result = adaptivePartition(p.pattern.graph(), config);
        benchmark::DoNotOptimize(result);
    }
}
BENCHMARK(BM_AdaptivePartition);

void
BM_SingleQpuPlacement(benchmark::State &state)
{
    const auto &p = qft36();
    const SingleQpuCompiler compiler(baselineConfig(p.gridSize));
    for (auto _ : state) {
        auto schedule = compiler.compile(p.pattern.graph(), p.deps);
        benchmark::DoNotOptimize(schedule);
    }
}
BENCHMARK(BM_SingleQpuPlacement);

void
BM_LifetimeEvaluation(benchmark::State &state)
{
    const auto &p = qft36();
    const auto baseline =
        compileBase(p, baselineConfig(p.gridSize));
    std::vector<TimeSlot> node_time(p.pattern.numNodes());
    for (NodeId u = 0; u < p.pattern.numNodes(); ++u)
        node_time[u] = baseline.schedule.nodePhysicalTime(u);
    for (auto _ : state) {
        auto breakdown =
            computeLifetime(p.pattern.graph(), p.deps, node_time);
        benchmark::DoNotOptimize(breakdown);
    }
}
BENCHMARK(BM_LifetimeEvaluation);

struct LspFixture
{
    LayerSchedulingProblem lsp;

    LspFixture() : lsp(buildOnce()) {}

    static LayerSchedulingProblem
    buildOnce()
    {
        const auto &p = qft36();
        const auto config = CompileOptions::fromConfig(
            paperConfig(4, p.gridSize)).build().value();
        const auto adaptive =
            adaptivePartition(p.pattern.graph(), config.partition);
        return buildLayerSchedulingProblem(
            p.pattern.graph(), p.deps, adaptive.best, config.numQpus,
            config.grid, config.order, config.kmax).value();
    }
};

void
BM_ListScheduling(benchmark::State &state)
{
    static const LspFixture fixture;
    for (auto _ : state) {
        auto schedule = listScheduleDefault(fixture.lsp);
        benchmark::DoNotOptimize(schedule);
    }
}
BENCHMARK(BM_ListScheduling);

void
BM_BdirNeighborStep(benchmark::State &state)
{
    static const LspFixture fixture;
    static const Schedule initial = listScheduleDefault(fixture.lsp);
    for (auto _ : state) {
        auto next = generateNeighbor(fixture.lsp, initial);
        benchmark::DoNotOptimize(next);
    }
}
BENCHMARK(BM_BdirNeighborStep);

void
BM_DriverEndToEnd(benchmark::State &state)
{
    // Full pass pipeline through the public driver, including the
    // per-stage timing bookkeeping (cost of the API layer itself).
    static const Prepared p = prepare(Family::Qft, 16);
    const CompilerDriver driver(
        CompileOptions::fromConfig(paperConfig(4, p.gridSize)));
    for (auto _ : state) {
        auto report = driver.compile(makeRequest(p));
        benchmark::DoNotOptimize(report);
    }
}
BENCHMARK(BM_DriverEndToEnd);

void
BM_DriverBatch8(benchmark::State &state)
{
    // Eight identical requests fanned across the thread pool.
    static const Prepared p = prepare(Family::Qft, 16);
    const CompilerDriver driver(
        CompileOptions::fromConfig(paperConfig(4, p.gridSize)));
    const std::vector<CompileRequest> requests(8, makeRequest(p));
    for (auto _ : state) {
        auto reports = driver.compileBatch(requests);
        benchmark::DoNotOptimize(reports);
    }
}
BENCHMARK(BM_DriverBatch8);

} // namespace

BENCHMARK_MAIN();

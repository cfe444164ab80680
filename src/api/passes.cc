#include "api/passes.hh"

#include <sstream>

#include "core/lifetime.hh"
#include "core/list_scheduler.hh"
#include "core/lsp_builder.hh"
#include "mbqc/dependency.hh"
#include "mbqc/pattern_builder.hh"

namespace dcmbqc
{

Status
TranspilePass::run(PassContext &ctx) const
{
    if (!ctx.circuit)
        return Status::internal("Transpile: no circuit on context");

    ctx.jcircuit = transpileToJCz(*ctx.circuit);

    std::ostringstream note;
    note << ctx.jcircuit->numJ() << " J ops, "
         << ctx.jcircuit->numCz() << " CZ ops";
    ctx.stageNote = note.str();
    return Status::okStatus();
}

Status
PatternBuildPass::run(PassContext &ctx) const
{
    if (!ctx.pattern) {
        if (!ctx.jcircuit)
            return Status::internal(
                "PatternBuild: neither pattern nor JCircuit present");
        ctx.patternStorage = buildPattern(*ctx.jcircuit);
        ctx.pattern = &*ctx.patternStorage;
    }

    ctx.graph = &ctx.pattern->graph();
    ctx.depsStorage = realTimeDependencyGraph(*ctx.pattern);
    ctx.deps = &*ctx.depsStorage;

    std::ostringstream note;
    note << ctx.pattern->numNodes() << " photons, "
         << ctx.graph->numEdges() << " fusion edges";
    ctx.stageNote = note.str();
    return Status::okStatus();
}

Status
PatternStreamPass::run(PassContext &ctx) const
{
    if (!ctx.stream)
        return Status::internal("PatternStream: no stream on context");

    Expected<Pattern> pattern = buildPatternStreamed(
        *ctx.stream, ctx.window, ctx.windowCheckpoint,
        &ctx.streamStats);
    if (!pattern.ok())
        return pattern.status();
    ctx.patternStorage = std::move(pattern).value();
    ctx.pattern = &*ctx.patternStorage;

    ctx.graph = &ctx.pattern->graph();
    ctx.depsStorage = realTimeDependencyGraph(*ctx.pattern);
    ctx.deps = &*ctx.depsStorage;

    // Same shape as the PatternBuild note: the summary must not leak
    // the window size (goldens pin stage notes; the window is an
    // execution knob, not a semantic one).
    std::ostringstream note;
    note << ctx.pattern->numNodes() << " photons, "
         << ctx.graph->numEdges() << " fusion edges";
    ctx.stageNote = note.str();
    return Status::okStatus();
}

Status
PartitionPass::run(PassContext &ctx) const
{
    if (!ctx.graph)
        return Status::internal("Partition: no graph on context");

    ctx.partitionResult =
        adaptivePartition(*ctx.graph, ctx.config.partition, ctx.noise);

    std::ostringstream note;
    note << ctx.config.partition.k << " parts, "
         << ctx.partitionResult->cutEdges << " cut edges, "
         << "modularity " << ctx.partitionResult->modularity;
    if (ctx.noise)
        note << ", noise log-survival "
             << ctx.partitionResult->noiseLogSurvival;
    ctx.stageNote = note.str();
    return Status::okStatus();
}

Status
PlaceLocalPass::run(PassContext &ctx) const
{
    if (!ctx.graph || !ctx.deps || !ctx.partitionResult)
        return Status::internal(
            "PlaceLocal: missing graph/deps/partition");

    Expected<LayerSchedulingProblem> lsp = buildLayerSchedulingProblem(
        *ctx.graph, *ctx.deps, ctx.partitionResult->best,
        ctx.config.numQpus, ctx.config.grid, ctx.config.order,
        ctx.config.kmax, &ctx.localSchedules);
    if (!lsp.ok())
        return lsp.status();
    ctx.lsp = std::move(lsp).value();

    for (std::size_t qpu = 0; qpu < ctx.localSchedules.size(); ++qpu) {
        if (ctx.localSchedules[qpu].nodeLayer.empty())
            ctx.warnings.push_back(
                "QPU " + std::to_string(qpu) +
                " received no nodes from the partitioner (program "
                "smaller than the QPU count?)");
    }

    std::ostringstream note;
    note << ctx.lsp->mainTasks().size() << " main tasks, "
         << ctx.lsp->syncTasks().size() << " sync tasks";
    ctx.stageNote = note.str();
    return Status::okStatus();
}

Status
ScheduleListPass::run(PassContext &ctx) const
{
    if (!ctx.lsp)
        return Status::internal("ScheduleList: no LSP on context");

    Expected<Schedule> schedule = listScheduleDefault(
        *ctx.lsp, ctx.window, ctx.windowCheckpoint, &ctx.streamStats);
    if (!schedule.ok())
        return schedule.status();
    ctx.schedule = std::move(schedule).value();

    std::ostringstream note;
    note << "makespan " << ctx.schedule->makespan << " slots";
    ctx.stageNote = note.str();
    return Status::okStatus();
}

Status
RefineBdirPass::run(PassContext &ctx) const
{
    if (!ctx.lsp || !ctx.schedule)
        return Status::internal("RefineBdir: no schedule to refine");

    ctx.schedule = bdirOptimize(*ctx.lsp, *ctx.schedule,
                                ctx.config.bdir, &ctx.bdirStats,
                                ctx.noise);

    std::ostringstream note;
    note << "lifetime " << ctx.bdirStats.initialLifetime << " -> "
         << ctx.bdirStats.finalLifetime << " cycles ("
         << ctx.bdirStats.acceptedMoves << " accepted moves"
         << (ctx.noise ? ", noise-aware objective" : "") << ")";
    ctx.stageNote = note.str();
    return Status::okStatus();
}

Status
PlaceBaselinePass::run(PassContext &ctx) const
{
    if (!ctx.graph || !ctx.deps)
        return Status::internal("PlaceBaseline: missing graph/deps");

    SingleQpuConfig config;
    config.grid = ctx.config.grid;
    config.order = ctx.config.order;

    Expected<LocalSchedule> schedule =
        SingleQpuCompiler(config).compile(*ctx.graph, *ctx.deps);
    if (!schedule.ok())
        return schedule.status();
    BaselineResult result;
    result.schedule = std::move(schedule).value();

    std::vector<TimeSlot> node_time(ctx.graph->numNodes());
    for (NodeId u = 0; u < ctx.graph->numNodes(); ++u)
        node_time[u] = result.schedule.nodePhysicalTime(u);
    result.lifetime = computeLifetime(*ctx.graph, *ctx.deps, node_time);

    std::ostringstream note;
    note << result.schedule.layers.size() << " layers, lifetime "
         << result.lifetime.tauPhoton() << " cycles";
    ctx.stageNote = note.str();
    ctx.baseline = std::move(result);
    return Status::okStatus();
}

} // namespace dcmbqc

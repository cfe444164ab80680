/**
 * @file
 * Noise-model sweep: compile the benchmark programs noise-blind and
 * noise-aware under increasingly connector-hostile error budgets and
 * compare the analytic composite survival of the chosen schedules
 * (plus a Monte-Carlo cross-check on mc-loss). Demonstrates the
 * acceptance property of the noise subsystem: under a
 * connector-heavy `NoiseConfig` the noise-aware cost model picks a
 * different partition/schedule with survival at least as high as
 * the noise-blind choice — and strictly higher where the budgets
 * diverge. Results are mirrored to BENCH_noise_sweep.json.
 */

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <set>
#include <string>

#include "bench/bench_common.hh"
#include "bench/bench_json.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "exec/loss_backend.hh"
#include "noise/analysis.hh"
#include "noise/model.hh"
#include "partition/adaptive.hh"
#include "serialize/json.hh"

using namespace dcmbqc;
using namespace dcmbqc::bench;

namespace
{

struct Budget
{
    const char *name;
    NoiseConfig config;
};

/**
 * Mild -> hostile connector budgets. The fusion term (0.29 per
 * remote fusion) joins only the hostile budget: it dominates every
 * cut edge, so the milder budgets keep the sampled survival in a
 * measurable range.
 */
std::vector<Budget>
budgets()
{
    std::vector<Budget> all;
    for (const double db : {0.25, 1.5, 3.0}) {
        Budget b;
        b.name = db < 1.0 ? "mild" : db < 2.0 ? "lossy" : "hostile";
        b.config.add("delay-line").add(
            "connector", {{"insertion_loss_db", db}});
        if (db >= 2.0)
            b.config.add("fusion");
        all.push_back(std::move(b));
    }
    return all;
}

/** Compile one prepared program, optionally noise-aware. */
DcMbqcResult
compileWith(const Prepared &p, const DcMbqcConfig &config,
            const NoiseConfig *noise)
{
    CompileOptions options =
        CompileOptions::fromConfig(config).cache(benchCache());
    if (noise)
        options.noise(*noise);
    const CompilerDriver driver(options);
    auto report = driver.compile(makeRequest(p));
    if (!report.ok())
        fatal("noise_sweep compile ", p.name, ": ",
              report.status().toString());
    return std::move(*report.value().distributed);
}

/** Analytic log-survival of a compiled schedule under one model. */
double
scheduleSurvival(const Prepared &p, const DcMbqcResult &result,
                 const NoiseModel &model)
{
    auto times = schedulePhotonTimes(
        result, p.pattern.graph().numNodes());
    if (!times.ok())
        fatal("noise_sweep photon times ", p.name, ": ",
              times.status().toString());
    const NoiseExposure exposure =
        buildExposure(p.pattern.graph(), p.deps, *times,
                      &result.partition.assignment());
    return analyzeNoise(exposure, model).logSurvival;
}

/** Monte-Carlo survival of a schedule on the mc-loss backend. */
double
sampledSurvival(const Prepared &p, const DcMbqcResult &result,
                const NoiseConfig &noise)
{
    ExecOptions exec;
    exec.backend = "mc-loss";
    exec.shots = 2000;
    exec.seed = 42;
    exec.noise = noise;
    const ExecProgram program =
        ExecProgram::fromGraph(p.pattern.graph(), p.deps, p.name)
            .withSchedule(result);
    auto sampled = executeProgram(program, exec);
    if (!sampled.ok())
        fatal("noise_sweep mc-loss ", p.name, ": ",
              sampled.status().toString());
    return sampled->survivalRate();
}

} // namespace

int
main()
{
    TextTable table({"program", "budget", "blind logS", "aware logS",
                     "gain", "choice", "sampled blind",
                     "sampled aware"});
    JsonWriter json;
    json.beginObject();
    json.key("bench").value("noise_sweep");
    json.key("rows").beginArray();

    int improved = 0, regressed = 0;
    for (const auto &[family, qubits] :
         {std::pair<Family, int>{Family::Qft, 12},
          std::pair<Family, int>{Family::Qaoa, 12},
          std::pair<Family, int>{Family::Vqe, 16}}) {
        const auto p = prepare(family, qubits);
        const DcMbqcConfig config = paperConfig(4, p.gridSize);
        const DcMbqcResult blind = compileWith(p, config, nullptr);

        for (const Budget &budget : budgets()) {
            auto model = buildNoiseModel(budget.config);
            if (!model.ok())
                fatal("noise_sweep budget ", budget.name, ": ",
                      model.status().toString());
            const DcMbqcResult aware =
                compileWith(p, config, &budget.config);

            const double blind_log =
                scheduleSurvival(p, blind, *model);
            const double aware_log =
                scheduleSurvival(p, aware, *model);
            const bool partition_differs =
                aware.partition.assignment() !=
                blind.partition.assignment();
            // The BDIR objective switch can move photons between
            // layers without touching the partition, so compare the
            // physical generation times too.
            const bool schedule_differs = partition_differs ||
                schedulePhotonTimes(aware,
                                    p.pattern.graph().numNodes())
                        .value() !=
                    schedulePhotonTimes(blind,
                                        p.pattern.graph().numNodes())
                        .value();
            const double blind_mc =
                sampledSurvival(p, blind, budget.config);
            const double aware_mc =
                sampledSurvival(p, aware, budget.config);
            if (aware_log > blind_log + 1e-9)
                ++improved;
            if (aware_log < blind_log - 1e-9)
                ++regressed;

            table.row()
                .cell(p.name)
                .cell(budget.name)
                .cell(blind_log, 4)
                .cell(aware_log, 4)
                .cell(aware_log - blind_log, 4)
                .cell(partition_differs ? "partition"
                          : schedule_differs ? "schedule"
                                             : "same")
                .cell(blind_mc, 4)
                .cell(aware_mc, 4);

            json.beginObject();
            json.key("program").value(p.name);
            json.key("budget").value(budget.name);
            json.key("blindLogSurvival").value(blind_log);
            json.key("awareLogSurvival").value(aware_log);
            json.key("logSurvivalGain")
                .value(aware_log - blind_log);
            json.key("partitionDiffers").value(partition_differs);
            json.key("scheduleDiffers").value(schedule_differs);
            json.key("sampledBlindSurvival").value(blind_mc);
            json.key("sampledAwareSurvival").value(aware_mc);
            json.endObject();
        }
    }
    std::printf("%s",
                table
                    .render("Noise sweep: noise-blind vs noise-aware "
                            "compilation (4 QPUs, 2000 shots)")
                    .c_str());
    std::printf("\nnoise-aware schedules: %d improved, %d regressed "
                "(regressions indicate a cost-model bug)\n",
                improved, regressed);
    json.endArray();

    // Partition-level divergence: the paper's structured circuits
    // give the alpha sweep few candidates, so the partition choice
    // rarely splits there. Random sparse graphs (weak community
    // structure) make modularity and cut survival disagree — count
    // how often the noise-aware partitioner picks a different
    // partition with strictly higher static survival.
    {
        auto hostile = budgets().back();
        auto model = buildNoiseModel(hostile.config);
        if (!model.ok())
            fatal("noise_sweep: ", model.status().toString());
        int divergent = 0, partition_regressed = 0;
        const int instances = 24;
        for (std::uint64_t seed = 1;
             seed <= static_cast<std::uint64_t>(instances); ++seed) {
            Rng rng_edges(seed * 7919);
            std::vector<Edge> edges;
            std::set<std::pair<NodeId, NodeId>> seen;
            while (edges.size() < 64) {
                const NodeId u =
                    static_cast<NodeId>(rng_edges.uniformInt(32));
                const NodeId v =
                    static_cast<NodeId>(rng_edges.uniformInt(32));
                if (u != v && seen.insert(std::minmax(u, v)).second)
                    edges.push_back({u, v});
            }
            const Graph g(32, std::move(edges));
            AdaptiveConfig config;
            config.k = 4;
            config.seed = seed;
            const AdaptiveResult blind = adaptivePartition(g, config);
            const AdaptiveResult aware =
                adaptivePartition(g, config, &*model);
            const double blind_log =
                partitionLogSurvival(g, blind.best, *model);
            const double aware_log =
                partitionLogSurvival(g, aware.best, *model);
            if (aware_log < blind_log - 1e-9)
                ++partition_regressed;
            if (aware_log > blind_log + 1e-9 &&
                aware.best.assignment() != blind.best.assignment())
                ++divergent;
        }
        std::printf("partition divergence (32-node random graphs, "
                    "hostile budget): %d/%d instances pick a "
                    "different partition with strictly higher "
                    "survival, %d regressed\n",
                    divergent, instances, partition_regressed);
        json.key("partitionDivergence").beginObject();
        json.key("instances").value(instances);
        json.key("divergentImproved").value(divergent);
        json.key("regressed").value(partition_regressed);
        json.endObject();
        regressed += partition_regressed;
        if (divergent == 0) {
            std::printf("noise_sweep: expected at least one "
                        "divergent partition\n");
            ++regressed;
        }
    }
    json.key("improved").value(improved);
    json.key("regressed").value(regressed);
    json.endObject();
    writeBenchJson("noise_sweep", json.take());
    printCacheFooter();
    return regressed == 0 ? 0 : 1;
}

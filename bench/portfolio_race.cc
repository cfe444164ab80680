/**
 * @file
 * Portfolio-race acceptance bench: on random sparse 32-node graphs
 * under a lossy error budget, race K = 8 compile strategies per
 * workload and compare the winning schedule's analytic composite
 * survival against the K = 1 default compile. The gate encodes the
 * subsystem's contract: the winner never survives *worse* than the
 * default (ties keep the default candidate), and a portfolio that
 * never finds a strictly better schedule on workloads this irregular
 * indicates a broken strategy space. Both survivals are recomputed
 * here from the returned schedules — the race's own scores are not
 * trusted. Results are mirrored to BENCH_portfolio.json.
 */

#include <algorithm>
#include <cstdio>
#include <set>
#include <string>

#include "bench/bench_common.hh"
#include "bench/bench_json.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "exec/loss_backend.hh"
#include "graph/digraph.hh"
#include "noise/analysis.hh"
#include "noise/model.hh"
#include "serialize/json.hh"

using namespace dcmbqc;
using namespace dcmbqc::bench;

namespace
{

/** Random sparse graph: weak community structure, contested cuts. */
Graph
makeWorkload(std::uint64_t seed)
{
    Rng rng_edges(seed * 7919);
    std::vector<Edge> edges;
    std::set<std::pair<NodeId, NodeId>> seen;
    while (edges.size() < 64) {
        const NodeId u = static_cast<NodeId>(rng_edges.uniformInt(32));
        const NodeId v = static_cast<NodeId>(rng_edges.uniformInt(32));
        if (u != v && seen.insert(std::minmax(u, v)).second)
            edges.push_back({u, v});
    }
    return Graph(32, std::move(edges));
}

/** Analytic log-survival of one returned schedule. */
double
scheduleSurvival(const Graph &g, const Digraph &deps,
                 const DcMbqcResult &result, const NoiseModel &model)
{
    auto times = schedulePhotonTimes(result, g.numNodes());
    if (!times.ok())
        fatal("portfolio_race photon times: ",
              times.status().toString());
    const NoiseExposure exposure = buildExposure(
        g, deps, *times, &result.partition.assignment());
    return analyzeNoise(exposure, model).logSurvival;
}

} // namespace

int
main()
{
    // The lossy budget of the noise sweep: delay-line storage decay
    // plus 1.5 dB connectors, so both cut count and schedule depth
    // carry survival weight.
    NoiseConfig budget;
    budget.add("delay-line")
        .add("connector", {{"insertion_loss_db", 1.5}});
    auto model = buildNoiseModel(budget);
    if (!model.ok())
        fatal("portfolio_race budget: ", model.status().toString());

    constexpr int kInstances = 24;
    constexpr int kCandidates = 8;

    TextTable table({"workload", "default logS", "winner logS",
                     "gain", "winner", "makespan d/w"});
    JsonWriter json;
    json.beginObject();
    json.key("bench").value("portfolio_race");
    json.key("candidates").value(kCandidates);
    json.key("rows").beginArray();

    int improved = 0, regressed = 0;
    for (std::uint64_t seed = 1; seed <= kInstances; ++seed) {
        const Graph g = makeWorkload(seed);
        const Digraph deps(g.numNodes());
        const std::string name =
            "rand32-" + std::to_string(seed);
        const CompileRequest request =
            CompileRequest::fromGraph(g, deps, name);

        CompileOptions base =
            CompileOptions::fromConfig(paperConfig(4, 7))
                .seed(seed)
                .cache(benchCache())
                .noise(budget);

        auto plain = CompilerDriver(base).compile(request);
        if (!plain.ok())
            fatal("portfolio_race default ", name, ": ",
                  plain.status().toString());

        auto raced =
            CompilerDriver(CompileOptions(base).portfolio(kCandidates))
                .compile(request);
        if (!raced.ok())
            fatal("portfolio_race race ", name, ": ",
                  raced.status().toString());
        if (!raced->portfolio)
            fatal("portfolio_race ", name,
                  ": race report missing the portfolio table");

        const double default_log = scheduleSurvival(
            g, deps, *plain->distributed, *model);
        const double winner_log = scheduleSurvival(
            g, deps, *raced->distributed, *model);
        const std::string &winner_name =
            raced->portfolio
                ->candidates[raced->portfolio->winnerIndex]
                .strategy;

        if (winner_log > default_log + 1e-9)
            ++improved;
        if (winner_log < default_log - 1e-9)
            ++regressed;

        table.row()
            .cell(name)
            .cell(default_log, 4)
            .cell(winner_log, 4)
            .cell(winner_log - default_log, 4)
            .cell(winner_name)
            .cell(std::to_string(
                      plain->distributed->schedule.makespan) +
                  "/" +
                  std::to_string(
                      raced->distributed->schedule.makespan));

        json.beginObject();
        json.key("workload").value(name);
        json.key("defaultLogSurvival").value(default_log);
        json.key("winnerLogSurvival").value(winner_log);
        json.key("logSurvivalGain").value(winner_log - default_log);
        json.key("winnerStrategy").value(winner_name);
        json.key("defaultMakespan")
            .value(plain->distributed->schedule.makespan);
        json.key("winnerMakespan")
            .value(raced->distributed->schedule.makespan);
        json.endObject();
    }
    json.endArray();

    std::printf(
        "%s",
        table
            .render("Portfolio race vs default compile (32-node "
                    "random graphs, lossy budget, K = " +
                    std::to_string(kCandidates) + ")")
            .c_str());

    // The gate: regressions indicate a broken winner selection; too
    // few strict improvements indicate a degenerate strategy space.
    const int required_improved = kInstances / 3;
    const bool enough = improved >= required_improved;
    std::printf("\nportfolio winners: %d/%d strictly improved "
                "(need >= %d), %d regressed (need 0)\n",
                improved, kInstances, required_improved, regressed);

    json.key("improved").value(improved);
    json.key("requiredImproved").value(required_improved);
    json.key("regressed").value(regressed);
    json.endObject();
    writeBenchJson("portfolio", json.take());
    printCacheFooter();
    return regressed == 0 && enough ? 0 : 1;
}

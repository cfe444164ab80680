#include "core/bdir.hh"

#include <algorithm>
#include <cmath>
#include <cstdlib>
#include <optional>

#include "common/logging.hh"
#include "common/rng.hh"
#include "noise/analysis.hh"

namespace dcmbqc
{

namespace
{

/** The schedule's primary bottleneck. */
struct Bottleneck
{
    enum class Kind { Fusee, Measuree, Remote };

    Kind kind = Kind::Fusee;
    int cost = 0;

    /** Main task to move (Fusee / Measuree) or -1. */
    int mainTask = -1;

    /** Sync task to move (Remote) or -1. */
    int syncTask = -1;
};

/**
 * FINDBOTTLENECKTASK of Algorithm 3. `waits` are the measuree waits
 * of `node_time` (measureeWaits).
 */
Bottleneck
findBottleneckTask(const LayerSchedulingProblem &lsp,
                   const Schedule &schedule,
                   const std::vector<TimeSlot> &node_time,
                   const std::vector<int> &waits)
{
    Bottleneck best;

    // Fusee spans on intra-QPU edges.
    for (const auto &e : lsp.graph().edges()) {
        if (!lsp.isLocal(e))
            continue;
        const int span = std::abs(node_time[e.u] - node_time[e.v]);
        if (span > best.cost) {
            best.cost = span;
            best.kind = Bottleneck::Kind::Fusee;
            // Move the later endpoint's task (toward its partner).
            const NodeId later =
                node_time[e.u] >= node_time[e.v] ? e.u : e.v;
            best.mainTask = lsp.taskOfNode(later);
            best.syncTask = -1;
        }
    }

    // Measuree waits.
    for (NodeId u = 0; u < static_cast<NodeId>(waits.size()); ++u) {
        if (waits[u] > best.cost) {
            best.cost = waits[u];
            best.kind = Bottleneck::Kind::Measuree;
            best.mainTask = lsp.taskOfNode(u);
            best.syncTask = -1;
        }
    }

    // Remote connector storage (physical cycles).
    for (std::size_t k = 0; k < lsp.syncTasks().size(); ++k) {
        const auto &sync = lsp.syncTasks()[k];
        const TimeSlot s = schedule.syncStart[k] * lsp.plRatio();
        const int d = std::max(
            std::abs(s - schedule.mainStart[sync.taskA] *
                             lsp.plRatio()),
            std::abs(s - schedule.mainStart[sync.taskB] *
                             lsp.plRatio()));
        if (d > best.cost) {
            best.cost = d;
            best.kind = Bottleneck::Kind::Remote;
            best.mainTask = -1;
            best.syncTask = static_cast<int>(k);
        }
    }
    return best;
}

/**
 * CALCULATEBALANCEPOINT: the cost contribution of moving main task N
 * to slot t, with every other task fixed (piecewise-linear convex in
 * t), minimized by integer ternary search.
 */
TimeSlot
balancePointForMain(const LayerSchedulingProblem &lsp,
                    const Schedule &schedule,
                    const std::vector<TimeSlot> &node_time,
                    const std::vector<int> &waits, int task)
{
    // Anchors: |t - a| terms.
    std::vector<TimeSlot> abs_anchors;
    // Lower-pressure terms max(0, a - t): want t late.
    std::vector<TimeSlot> late_pressure;
    // Upper-pressure terms max(0, t - a): want t early.
    std::vector<TimeSlot> early_pressure;

    std::vector<char> in_task(lsp.graph().numNodes(), 0);
    for (NodeId u : lsp.mainTasks()[task].nodes)
        in_task[u] = 1;

    // Local edges out of the task: a cut edge's partner is charged
    // through its sync task below.
    const QpuId qpu = lsp.mainTasks()[task].qpu;
    for (NodeId u : lsp.mainTasks()[task].nodes) {
        for (const auto &adj : lsp.graph().adjacency(u))
            if (!in_task[adj.neighbor] &&
                lsp.qpuOfNode(adj.neighbor) == qpu)
                abs_anchors.push_back(node_time[adj.neighbor]);
        // MTime[p] + 1 of the *current* schedule.
        for (NodeId p : lsp.deps().predecessors(u))
            if (!in_task[p])
                late_pressure.push_back(node_time[p] + waits[p] + 1);
        for (NodeId c : lsp.deps().successors(u))
            if (!in_task[c])
                early_pressure.push_back(node_time[c] - 2);
    }
    for (int k : lsp.syncsOfTask(task))
        abs_anchors.push_back(schedule.syncStart[k] * lsp.plRatio());

    auto cost = [&](TimeSlot t) {
        long long c = 0;
        for (TimeSlot a : abs_anchors)
            c = std::max<long long>(c, std::abs(t - a));
        for (TimeSlot a : late_pressure)
            c = std::max<long long>(c, a - t);
        for (TimeSlot a : early_pressure)
            c = std::max<long long>(c, t - a);
        return c;
    };

    // Search in physical cycles, return a scheduling slot.
    TimeSlot lo = 0;
    TimeSlot hi = std::max<TimeSlot>(
        schedule.makespan * lsp.plRatio(), 1);
    while (hi - lo > 2) {
        const TimeSlot m1 = lo + (hi - lo) / 3;
        const TimeSlot m2 = hi - (hi - lo) / 3;
        if (cost(m1) <= cost(m2))
            hi = m2;
        else
            lo = m1;
    }
    TimeSlot best_t = lo;
    for (TimeSlot t = lo; t <= hi; ++t)
        if (cost(t) < cost(best_t))
            best_t = t;
    return best_t / lsp.plRatio();
}

} // namespace

Schedule
generateNeighbor(const LayerSchedulingProblem &lsp,
                 const Schedule &current)
{
    const auto node_time = nodeTimes(lsp, current);
    const auto waits =
        measureeWaits(lsp.deps(), node_time, &lsp.depsOrder());
    const auto bottleneck =
        findBottleneckTask(lsp, current, node_time, waits);

    TaskPin pin;
    if (bottleneck.kind == Bottleneck::Kind::Remote) {
        const auto &sync = lsp.syncTasks()[bottleneck.syncTask];
        pin.isMain = false;
        pin.task = bottleneck.syncTask;
        // Equilibrium between the two associated execution layers.
        pin.slot = (current.mainStart[sync.taskA] +
                    current.mainStart[sync.taskB]) / 2;
    } else {
        pin.isMain = true;
        pin.task = bottleneck.mainTask;
        pin.slot = balancePointForMain(lsp, current, node_time, waits,
                                       pin.task);
    }
    if (pin.slot < 0)
        pin.slot = 0;

    // PINANDRESCHEDULE: priorities = current start times.
    std::vector<double> main_priority(current.mainStart.begin(),
                                      current.mainStart.end());
    std::vector<double> sync_priority(current.syncStart.begin(),
                                      current.syncStart.end());
    // One whole-run window and no checkpoint: cannot fail.
    return listSchedule(lsp, main_priority, sync_priority, pin,
                        StreamWindow{})
        .value();
}

Schedule
bdirOptimize(const LayerSchedulingProblem &lsp, const Schedule &initial,
             const BdirConfig &config, BdirStats *stats,
             const NoiseModel *noise)
{
    Rng rng(config.seed);

    // SA cost: tau_photon when noise-blind (the paper's objective);
    // negated composite log survival when a noise model is given, so
    // "lower is better" holds for both.
    const auto costOf = [&](const Schedule &schedule) -> double {
        if (noise)
            return -scheduleLogSurvival(lsp, schedule, *noise);
        return evaluateSchedule(lsp, schedule).tauPhoton();
    };

    Schedule current = initial;
    Schedule best = initial;
    const double c_initial = costOf(initial);
    double c_current = c_initial;
    double c_best = c_initial;
    double temperature = config.initialTemperature;

    // generateNeighbor draws no random numbers, so the neighbour of
    // `current` and its cost stay valid until a move is accepted: a
    // rejected neighbour is kept, not rebuilt and re-scored.
    std::optional<Schedule> next;
    double c_next = 0.0;
    int built = 0;
    int accepted = 0;
    int improved = 0;
    for (int iter = 0; iter < config.maxIterations; ++iter) {
        if (!next) {
            next = generateNeighbor(lsp, current);
            c_next = costOf(*next);
            ++built;
        }
        const double delta = c_next - c_current;

        if (delta <= 0.0 ||
            rng.uniform() < std::exp(-delta / temperature)) {
            current = std::move(*next);
            next.reset();
            c_current = c_next;
            ++accepted;
        }
        if (c_current < c_best) {
            c_best = c_current;
            best = current;
            ++improved;
        }
        temperature *= config.coolingRate;
    }

    if (stats) {
        // Noise-blind costs are tau_photon already.
        const auto lifetime = [&](const Schedule &schedule, double c) {
            return noise ? evaluateSchedule(lsp, schedule).tauPhoton()
                         : static_cast<int>(c);
        };
        stats->iterations = config.maxIterations;
        stats->neighborsBuilt = built;
        stats->acceptedMoves = accepted;
        stats->improvedMoves = improved;
        stats->initialLifetime = lifetime(initial, c_initial);
        stats->finalLifetime = lifetime(best, c_best);
    }
    return best;
}

} // namespace dcmbqc

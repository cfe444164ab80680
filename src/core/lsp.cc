#include "core/lsp.hh"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>

#include "common/logging.hh"

namespace dcmbqc
{

LayerSchedulingProblem::LayerSchedulingProblem(
    std::vector<MainTask> main_tasks, const Graph *graph,
    const Digraph *deps, int num_qpus, int kmax, int pl_ratio)
    : mainTasks_(std::move(main_tasks)),
      graph_(graph),
      deps_(deps),
      numQpus_(num_qpus),
      kmax_(kmax),
      plRatio_(pl_ratio)
{
    DCMBQC_ASSERT(numQpus_ >= 1, "LSP needs at least one QPU");
    DCMBQC_ASSERT(kmax_ >= 1, "Kmax must be positive");
    DCMBQC_ASSERT(plRatio_ >= 1, "PL ratio must be positive");
    DCMBQC_ASSERT(graph_->numNodes() == deps_->numNodes(),
                  "graph / deps size mismatch");

    qpuTasks_.assign(numQpus_, {});
    taskOfNode_.assign(graph_->numNodes(), -1);
    for (std::size_t id = 0; id < mainTasks_.size(); ++id) {
        const auto &task = mainTasks_[id];
        DCMBQC_ASSERT(task.qpu >= 0 && task.qpu < numQpus_,
                      "main task with bad QPU");
        DCMBQC_ASSERT(task.index ==
                          static_cast<int>(qpuTasks_[task.qpu].size()),
                      "main task indices must be dense per QPU");
        qpuTasks_[task.qpu].push_back(static_cast<int>(id));
        for (NodeId u : task.nodes) {
            DCMBQC_ASSERT(taskOfNode_[u] == -1,
                          "node in two main tasks: ", u);
            taskOfNode_[u] = static_cast<int>(id);
        }
    }
    for (NodeId u = 0; u < graph_->numNodes(); ++u)
        DCMBQC_ASSERT(taskOfNode_[u] >= 0, "node without main task: ", u);

    // Release slots: longest real-time dependency chain into each
    // node (in physical cycles, one per arc), converted to slots.
    // Within a QPU the release must also be monotone in the layer
    // order so it never conflicts with the order constraint.
    {
        const bool acyclic = deps_->topologicalSort(depsOrder_);
        DCMBQC_ASSERT(acyclic, "LSP deps cyclic");
        const std::vector<int> depth = deps_->longestPathTo(depsOrder_);

        mainRelease_.assign(mainTasks_.size(), 0);
        for (NodeId u = 0; u < deps_->numNodes(); ++u) {
            const int task = taskOfNode_[u];
            const TimeSlot release = std::max<TimeSlot>(
                (depth[u] - plRatio_) / plRatio_, 0);
            mainRelease_[task] =
                std::max(mainRelease_[task], release);
        }
        for (QpuId i = 0; i < numQpus_; ++i) {
            TimeSlot floor = 0;
            for (int task : qpuTasks_[i]) {
                mainRelease_[task] =
                    std::max(mainRelease_[task], floor);
                floor = mainRelease_[task];
            }
        }
    }

    // Each cut edge, in edge-id order, is re-established by one sync
    // task between its endpoints' main tasks.
    syncsOfTask_.assign(mainTasks_.size(), {});
    for (const Edge &e : graph_->edges()) {
        if (isLocal(e))
            continue;
        const int k = static_cast<int>(syncTasks_.size());
        const int task_a = taskOfNode_[e.u];
        const int task_b = taskOfNode_[e.v];
        syncTasks_.push_back({task_a, task_b, e.u, e.v});
        syncsOfTask_[task_a].push_back(k);
        syncsOfTask_[task_b].push_back(k);
    }
}

std::vector<TimeSlot>
nodeTimes(const LayerSchedulingProblem &lsp, const Schedule &schedule)
{
    std::vector<TimeSlot> times(lsp.graph().numNodes());
    for (NodeId u = 0; u < lsp.graph().numNodes(); ++u)
        times[u] =
            schedule.mainStart[lsp.taskOfNode(u)] * lsp.plRatio();
    return times;
}

ScheduleMetrics
evaluateSchedule(const LayerSchedulingProblem &lsp,
                 const Schedule &schedule)
{
    ScheduleMetrics metrics;

    // tau_local: Algorithm 1 with LayerIndex replaced by the start
    // time of the node's main task, in physical cycles. Only local
    // edges hold fusees; tau_remote charges the cut edges.
    const int pl = lsp.plRatio();
    const auto node_time = nodeTimes(lsp, schedule);
    for (const Edge &e : lsp.graph().edges())
        if (lsp.isLocal(e))
            metrics.tauLocal = std::max(
                metrics.tauLocal, std::abs(node_time[e.u] - node_time[e.v]));
    for (int wait : measureeWaits(lsp.deps(), node_time, &lsp.depsOrder()))
        metrics.tauLocal = std::max(metrics.tauLocal, wait);

    // tau_remote: connector storage between execution layer and
    // connection layer.
    for (std::size_t k = 0; k < lsp.syncTasks().size(); ++k) {
        const auto &sync = lsp.syncTasks()[k];
        const TimeSlot s = schedule.syncStart[k] * pl;
        const int d = std::max(
            std::abs(s - schedule.mainStart[sync.taskA] * pl),
            std::abs(s - schedule.mainStart[sync.taskB] * pl));
        metrics.tauRemote = std::max(metrics.tauRemote, d);
    }

    TimeSlot last = -1;
    for (TimeSlot t : schedule.mainStart)
        last = std::max(last, t);
    for (TimeSlot t : schedule.syncStart)
        last = std::max(last, t);
    metrics.makespan = (last + 1) * pl;
    return metrics;
}

bool
validateSchedule(const LayerSchedulingProblem &lsp,
                 const Schedule &schedule, std::string *why)
{
    auto fail = [&](const std::string &msg) {
        if (why)
            *why = msg;
        return false;
    };

    if (schedule.mainStart.size() != lsp.mainTasks().size() ||
        schedule.syncStart.size() != lsp.syncTasks().size()) {
        return fail("schedule size mismatch");
    }

    // Per-QPU main order and occupancy.
    // occupancy[qpu][slot] -> -1 free, -2 main, >=0 sync count.
    std::vector<std::map<TimeSlot, int>> occupancy(lsp.numQpus());

    for (QpuId i = 0; i < lsp.numQpus(); ++i) {
        TimeSlot prev = -1;
        for (int task : lsp.qpuTasks(i)) {
            const TimeSlot t = schedule.mainStart[task];
            if (t < 0)
                return fail("negative main start");
            if (t <= prev) {
                std::ostringstream oss;
                oss << "main order violated on QPU " << i
                    << " at slot " << t;
                return fail(oss.str());
            }
            prev = t;
            auto [it, inserted] = occupancy[i].emplace(t, -2);
            if (!inserted)
                return fail("two tasks share a QPU slot");
        }
    }

    for (std::size_t k = 0; k < lsp.syncTasks().size(); ++k) {
        const auto &sync = lsp.syncTasks()[k];
        const TimeSlot t = schedule.syncStart[k];
        if (t < 0)
            return fail("negative sync start");
        for (int task : {sync.taskA, sync.taskB}) {
            const QpuId qpu = lsp.mainTasks()[task].qpu;
            auto [it, inserted] = occupancy[qpu].emplace(t, 1);
            if (!inserted) {
                if (it->second == -2)
                    return fail("sync overlaps a main task");
                if (it->second >= lsp.kmax())
                    return fail("connection capacity exceeded");
                ++it->second;
            }
        }
    }
    return true;
}

} // namespace dcmbqc

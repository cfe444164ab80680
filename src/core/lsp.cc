#include "core/lsp.hh"

#include <algorithm>
#include <cstdlib>
#include <map>
#include <sstream>

#include "common/logging.hh"

namespace dcmbqc
{

LayerSchedulingProblem::LayerSchedulingProblem(
    std::vector<MainTask> main_tasks, std::vector<SyncTask> sync_tasks,
    Graph local_edges, Digraph deps, int num_qpus, int kmax,
    int pl_ratio)
    : mainTasks_(std::move(main_tasks)),
      syncTasks_(std::move(sync_tasks)),
      localEdges_(std::move(local_edges)),
      deps_(std::move(deps)),
      numQpus_(num_qpus),
      kmax_(kmax),
      plRatio_(pl_ratio)
{
    DCMBQC_ASSERT(numQpus_ >= 1, "LSP needs at least one QPU");
    DCMBQC_ASSERT(kmax_ >= 1, "Kmax must be positive");
    DCMBQC_ASSERT(plRatio_ >= 1, "PL ratio must be positive");
    DCMBQC_ASSERT(localEdges_.numNodes() == deps_.numNodes(),
                  "local edge graph / deps size mismatch");

    qpuTasks_.assign(numQpus_, {});
    taskOfNode_.assign(localEdges_.numNodes(), -1);
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

    // Release slots: longest real-time dependency chain into each
    // node (in physical cycles, one per arc), converted to slots.
    // Within a QPU the release must also be monotone in the layer
    // order so it never conflicts with the order constraint.
    {
        const bool acyclic = deps_.topologicalSort(depsOrder_);
        DCMBQC_ASSERT(acyclic, "LSP deps cyclic");
        std::vector<int> depth(deps_.numNodes(), 0);
        for (NodeId u : depsOrder_)
            for (NodeId v : deps_.successors(u))
                depth[v] = std::max(depth[v], depth[u] + 1);

        mainRelease_.assign(mainTasks_.size(), 0);
        for (NodeId u = 0; u < deps_.numNodes(); ++u) {
            const int task = taskOfNode_[u];
            if (task < 0)
                continue;
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

    syncsOfTask_.assign(mainTasks_.size(), {});
    for (std::size_t k = 0; k < syncTasks_.size(); ++k) {
        const auto &sync = syncTasks_[k];
        DCMBQC_ASSERT(sync.taskA >= 0 &&
                          sync.taskA < static_cast<int>(mainTasks_.size()),
                      "sync with bad taskA");
        DCMBQC_ASSERT(sync.taskB >= 0 &&
                          sync.taskB < static_cast<int>(mainTasks_.size()),
                      "sync with bad taskB");
        DCMBQC_ASSERT(mainTasks_[sync.taskA].qpu !=
                          mainTasks_[sync.taskB].qpu,
                      "sync task within one QPU");
        syncsOfTask_[sync.taskA].push_back(static_cast<int>(k));
        syncsOfTask_[sync.taskB].push_back(static_cast<int>(k));
    }
}

ScheduleMetrics
evaluateSchedule(const LayerSchedulingProblem &lsp,
                 const Schedule &schedule)
{
    ScheduleMetrics metrics;

    // tau_local: Algorithm 1 with LayerIndex replaced by the start
    // time of the node's main task, in physical cycles.
    const int pl = lsp.plRatio();
    std::vector<TimeSlot> node_time(lsp.localEdges().numNodes(), 0);
    for (NodeId u = 0; u < lsp.localEdges().numNodes(); ++u) {
        const int task = lsp.taskOfNode(u);
        DCMBQC_ASSERT(task >= 0, "node without main task: ", u);
        node_time[u] = schedule.mainStart[task] * pl;
    }
    const auto local = computeLifetime(lsp.localEdges(), lsp.deps(),
                                       node_time, &lsp.depsOrder());
    metrics.tauLocal = local.tauPhoton();

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

/**
 * @file
 * The Layer Scheduling Problem (Definition IV.1): schedule the main
 * tasks (per-QPU execution layers) and synchronization tasks
 * (inter-QPU connector fusions via connection layers) over a
 * discrete time horizon, minimizing the required photon lifetime
 * max(tau_local, tau_remote). NP-hard (Theorem IV.2, by reduction
 * from graph bandwidth).
 */

#ifndef DCMBQC_CORE_LSP_HH
#define DCMBQC_CORE_LSP_HH

#include <string>
#include <vector>

#include "common/types.hh"
#include "core/lifetime.hh"
#include "graph/digraph.hh"
#include "graph/graph.hh"

namespace dcmbqc
{

/** A main task J_{i,j}: execution layer j compiled for QPU i. */
struct MainTask
{
    QpuId qpu = invalidQpu;
    int index = -1; ///< j, the local layer index

    /** Computation-graph nodes (global ids) on this layer. */
    std::vector<NodeId> nodes;
};

/** A synchronization task S_k re-establishing one cut edge. */
struct SyncTask
{
    /** Main-task ids of the two associated execution layers. */
    int taskA = -1;
    int taskB = -1;

    /** The connector photons (global node ids). */
    NodeId u = invalidNode;
    NodeId v = invalidNode;
};

/**
 * An instance of the layer scheduling problem. Borrows the
 * computation graph, whose edges are the fusee pairs, and the global
 * dependency graph needed to evaluate tau_local; both must outlive
 * the instance.
 */
class LayerSchedulingProblem
{
  public:
    /**
     * @param main_tasks All main tasks, grouped by QPU with
     *        consecutive indices 0..m_i-1 per QPU; together they must
     *        hold every node of the graph.
     * @param graph Computation graph (global ids), borrowed. Each of
     *        its cut edges, in edge-id order, becomes a sync task.
     * @param deps Global real-time dependency graph, borrowed.
     * @param num_qpus Number of QPUs.
     * @param kmax Connection capacity per connection layer.
     * @param pl_ratio Physical cycles per scheduling slot (logical
     *        layer); metrics are evaluated in physical cycles.
     */
    LayerSchedulingProblem(std::vector<MainTask> main_tasks,
                           const Graph *graph, const Digraph *deps,
                           int num_qpus, int kmax, int pl_ratio = 1);

    int numQpus() const { return numQpus_; }
    int kmax() const { return kmax_; }
    int plRatio() const { return plRatio_; }

    const std::vector<MainTask> &mainTasks() const { return mainTasks_; }
    const std::vector<SyncTask> &syncTasks() const { return syncTasks_; }

    /** Main-task ids of QPU i, in index order. */
    const std::vector<int> &qpuTasks(QpuId i) const
    {
        return qpuTasks_[i];
    }

    /** Main task containing node u (global id). */
    int taskOfNode(NodeId u) const { return taskOfNode_[u]; }

    /** QPU that runs node u's main task. */
    QpuId qpuOfNode(NodeId u) const { return mainTasks_[taskOfNode_[u]].qpu; }

    /**
     * True for a local edge, whose endpoints' main tasks run on one
     * QPU; a cut edge is re-established by a sync task instead.
     */
    bool isLocal(const Edge &e) const
    {
        return qpuOfNode(e.u) == qpuOfNode(e.v);
    }

    /** Sync-task ids associated with each main task. */
    const std::vector<int> &syncsOfTask(int main_task) const
    {
        return syncsOfTask_[main_task];
    }

    /**
     * Release slot of each main task: scheduling a layer before the
     * measurement chains feeding it can resolve only adds photon
     * storage, so the scheduler treats
     *   release = (longest real-time dependency chain into the
     *              layer's nodes, in cycles) / plRatio
     * as an earliest start. Computed on construction.
     */
    TimeSlot mainRelease(int main_task) const
    {
        return mainRelease_[main_task];
    }

    /** The computation graph; its local edges are tau_local's fusees. */
    const Graph &graph() const { return *graph_; }
    const Digraph &deps() const { return *deps_; }

    /**
     * A topological order of deps(), sorted once on construction.
     * Hand it to measureeWaits so evaluating a schedule does not
     * sort the fixed graph again.
     */
    const std::vector<NodeId> &depsOrder() const { return depsOrder_; }

  private:
    std::vector<MainTask> mainTasks_;
    std::vector<SyncTask> syncTasks_;
    std::vector<std::vector<int>> qpuTasks_;
    std::vector<std::vector<int>> syncsOfTask_;
    std::vector<int> taskOfNode_;
    std::vector<TimeSlot> mainRelease_;
    const Graph *graph_ = nullptr;
    const Digraph *deps_ = nullptr;
    std::vector<NodeId> depsOrder_;
    int numQpus_ = 1;
    int kmax_ = 4;
    int plRatio_ = 1;
};

/** Decision variables: start slots of every task. */
struct Schedule
{
    std::vector<TimeSlot> mainStart;
    std::vector<TimeSlot> syncStart;

    /** Latest occupied slot + 1 (in scheduling slots). */
    TimeSlot makespan = 0;
};

/** Objective components of a schedule (in physical cycles). */
struct ScheduleMetrics
{
    int tauLocal = 0;
    int tauRemote = 0;
    TimeSlot makespan = 0;

    /** The LSP objective: max(tau_local, tau_remote). */
    int tauPhoton() const { return std::max(tauLocal, tauRemote); }
};

/**
 * The physical time of every node under `schedule`: its main task's
 * start slot times the PL ratio.
 */
std::vector<TimeSlot> nodeTimes(const LayerSchedulingProblem &lsp,
                                const Schedule &schedule);

/** Evaluate the objective of a (feasible) schedule. */
ScheduleMetrics evaluateSchedule(const LayerSchedulingProblem &lsp,
                                 const Schedule &schedule);

/**
 * Check feasibility: machine exclusivity (one main task XOR at most
 * Kmax sync tasks per QPU per slot), per-QPU main-task order, and
 * non-negative start times.
 *
 * @param why Optional out-description of the first violation.
 */
bool validateSchedule(const LayerSchedulingProblem &lsp,
                      const Schedule &schedule,
                      std::string *why = nullptr);

} // namespace dcmbqc

#endif // DCMBQC_CORE_LSP_HH

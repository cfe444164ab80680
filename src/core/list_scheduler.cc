#include "core/list_scheduler.hh"

#include <algorithm>
#include <numeric>

#include "common/logging.hh"

namespace dcmbqc
{

namespace
{

/** Per-slot QPU occupancy: free, running a main task, or syncing. */
struct QpuSlotState
{
    bool main = false;
    int syncs = 0;

    bool
    canAcceptSync(int kmax) const
    {
        return !main && syncs < kmax;
    }
};

/** The paper's default priorities (see the header). */
void
defaultPriorities(const LayerSchedulingProblem &lsp,
                  std::vector<double> &main_priority,
                  std::vector<double> &sync_priority)
{
    main_priority.resize(lsp.mainTasks().size());
    for (std::size_t i = 0; i < main_priority.size(); ++i)
        main_priority[i] = lsp.mainTasks()[i].index;
    sync_priority.resize(lsp.syncTasks().size());
    for (std::size_t k = 0; k < sync_priority.size(); ++k) {
        const auto &sync = lsp.syncTasks()[k];
        sync_priority[k] =
            0.5 * (lsp.mainTasks()[sync.taskA].index +
                   lsp.mainTasks()[sync.taskB].index);
    }
}

} // namespace

Expected<Schedule>
listSchedule(const LayerSchedulingProblem &lsp,
             const std::vector<double> &main_priority,
             const std::vector<double> &sync_priority,
             const std::optional<TaskPin> &pin,
             const StreamWindow &window,
             const WindowCheckpoint &checkpoint, StreamStats *stats)
{
    const auto &mains = lsp.mainTasks();
    const auto &syncs = lsp.syncTasks();
    DCMBQC_ASSERT(main_priority.size() == mains.size(),
                  "main priority size mismatch");
    DCMBQC_ASSERT(sync_priority.size() == syncs.size(),
                  "sync priority size mismatch");

    Schedule schedule;
    schedule.mainStart.assign(mains.size(), -1);
    schedule.syncStart.assign(syncs.size(), -1);

    // Per-QPU pointer to the lowest unscheduled main-task index.
    std::vector<std::size_t> next_main(lsp.numQpus(), 0);

    // Sync tasks sorted by priority; compacted as they schedule.
    // Sync tasks have no release slot, so all of them stay resident
    // for the whole run -- this vector is the scheduler's live set.
    std::vector<int> sync_order(syncs.size());
    std::iota(sync_order.begin(), sync_order.end(), 0);
    std::stable_sort(sync_order.begin(), sync_order.end(),
                     [&](int a, int b) {
                         return sync_priority[a] < sync_priority[b];
                     });

    const bool has_pin = pin.has_value();
    bool pin_done = !has_pin;

    std::size_t mains_left = mains.size();
    std::size_t syncs_left = syncs.size();
    const std::uint64_t total_tasks = mains.size() + syncs.size();

    TimeSlot max_release = 0;
    for (std::size_t i = 0; i < mains.size(); ++i)
        max_release =
            std::max(max_release, lsp.mainRelease(static_cast<int>(i)));
    const TimeSlot horizon_guard = static_cast<TimeSlot>(
        4 * (mains.size() + syncs.size()) + 64 + max_release +
        (pin ? std::max<TimeSlot>(pin->slot, 0) : 0));

    // The slot loop is monotone: once slot t is processed, every
    // start at slots <= t is final. A window of `window.size` slots
    // closes at such a boundary and gives cancellation and progress
    // a turn there.
    StreamStats local;
    local.schedulerLivePeak = syncs.size();
    TimeSlot window_begin = 0;
    auto close_window = [&](TimeSlot end_slot) -> Status {
        window_begin = end_slot;
        ++local.windows;
        if (!checkpoint)
            return Status::okStatus();
        WindowEvent event;
        event.index = static_cast<std::uint32_t>(local.windows - 1);
        event.settled = total_tasks - (mains_left + syncs_left);
        event.total = total_tasks;
        event.frontierLive = mains_left + syncs_left;
        return checkpoint(event);
    };

    std::vector<QpuSlotState> state(lsp.numQpus());
    for (TimeSlot t = 0; mains_left + syncs_left > 0; ++t) {
        DCMBQC_ASSERT(t < horizon_guard,
                      "list scheduler failed to converge");
        std::fill(state.begin(), state.end(), QpuSlotState());

        auto try_main = [&](int task_id) {
            const QpuId qpu = mains[task_id].qpu;
            if (t < lsp.mainRelease(task_id))
                return false; // generating photons early only stores
            if (state[qpu].main || state[qpu].syncs > 0)
                return false;
            // Enforce per-QPU order: only the next index may start.
            if (lsp.qpuTasks(qpu)[next_main[qpu]] != task_id)
                return false;
            state[qpu].main = true;
            schedule.mainStart[task_id] = t;
            ++next_main[qpu];
            --mains_left;
            return true;
        };

        auto try_sync = [&](int sync_id) {
            const auto &sync = syncs[sync_id];
            const QpuId qa = mains[sync.taskA].qpu;
            const QpuId qb = mains[sync.taskB].qpu;
            if (!state[qa].canAcceptSync(lsp.kmax()) ||
                !state[qb].canAcceptSync(lsp.kmax())) {
                return false;
            }
            ++state[qa].syncs;
            ++state[qb].syncs;
            schedule.syncStart[sync_id] = t;
            --syncs_left;
            return true;
        };

        // The pinned task gets absolute priority once its slot is
        // reached (earliest feasible slot >= pin->slot).
        if (!pin_done && t >= pin->slot) {
            if (pin->isMain)
                pin_done = try_main(pin->task);
            else
                pin_done = try_sync(pin->task);
        }

        // Merge the per-QPU main streams with the sorted sync list,
        // processing candidates in increasing priority.
        struct MainCandidate
        {
            double priority;
            int task;
        };
        std::vector<MainCandidate> main_candidates;
        for (QpuId i = 0; i < lsp.numQpus(); ++i) {
            if (next_main[i] >= lsp.qpuTasks(i).size())
                continue;
            const int task = lsp.qpuTasks(i)[next_main[i]];
            if (has_pin && pin->isMain && task == pin->task && !pin_done)
                continue; // pinned task only starts via the pin path
            if (schedule.mainStart[task] >= 0)
                continue;
            main_candidates.push_back({main_priority[task], task});
        }
        std::sort(main_candidates.begin(), main_candidates.end(),
                  [](const MainCandidate &a, const MainCandidate &b) {
                      return a.priority < b.priority;
                  });

        std::size_t mc = 0;
        std::size_t new_size = 0;
        for (std::size_t si = 0; si <= sync_order.size(); ++si) {
            const bool have_sync = si < sync_order.size();
            const double sync_prio = have_sync
                ? sync_priority[sync_order[si]] : 0.0;
            // Flush main candidates with priority below this sync.
            while (mc < main_candidates.size() &&
                   (!have_sync ||
                    main_candidates[mc].priority <= sync_prio)) {
                try_main(main_candidates[mc].task);
                ++mc;
            }
            if (!have_sync)
                break;
            const int sync_id = sync_order[si];
            bool scheduled = schedule.syncStart[sync_id] >= 0;
            if (!scheduled) {
                if (has_pin && !pin->isMain && sync_id == pin->task &&
                    !pin_done) {
                    scheduled = false; // only via the pin path
                } else {
                    scheduled = try_sync(sync_id);
                }
            }
            if (!scheduled)
                sync_order[new_size++] = sync_id;
        }
        sync_order.resize(new_size);

        // Fill pass: a slot where some QPU pair already syncs is a
        // connection layer -- pack it to capacity with that pair's
        // remaining tasks (in priority order) so connection layers
        // are fully utilized.
        bool any_sync_this_slot = false;
        for (QpuId i = 0; i < lsp.numQpus(); ++i)
            any_sync_this_slot |= state[i].syncs > 0;
        if (any_sync_this_slot) {
            new_size = 0;
            for (std::size_t si = 0; si < sync_order.size(); ++si) {
                const int sync_id = sync_order[si];
                bool scheduled = false;
                const auto &sync = syncs[sync_id];
                const QpuId qa = mains[sync.taskA].qpu;
                const QpuId qb = mains[sync.taskB].qpu;
                const bool pin_blocked = has_pin && !pin->isMain &&
                    sync_id == pin->task && !pin_done;
                if (!pin_blocked &&
                    (state[qa].syncs > 0 || state[qb].syncs > 0)) {
                    scheduled = try_sync(sync_id);
                }
                if (!scheduled)
                    sync_order[new_size++] = sync_id;
            }
            sync_order.resize(new_size);
        }

        if (window.active() &&
            static_cast<std::uint64_t>(t + 1 - window_begin) >=
                window.size) {
            Status status = close_window(t + 1);
            if (!status.ok())
                return status;
        }
    }

    TimeSlot last = -1;
    for (TimeSlot t : schedule.mainStart)
        last = std::max(last, t);
    for (TimeSlot t : schedule.syncStart)
        last = std::max(last, t);
    schedule.makespan = last + 1;

    // The last (or only) window runs through the end of the makespan
    // and fires the end-of-stage checkpoint.
    if (!window.active() || window_begin < schedule.makespan ||
        local.windows == 0) {
        Status status = close_window(schedule.makespan);
        if (!status.ok())
            return status;
    }

    if (stats != nullptr)
        stats->merge(local);
    return schedule;
}

Schedule
listScheduleDefault(const LayerSchedulingProblem &lsp)
{
    std::vector<double> main_priority;
    std::vector<double> sync_priority;
    defaultPriorities(lsp, main_priority, sync_priority);
    // One whole-run window and no checkpoint: cannot fail.
    return listSchedule(lsp, main_priority, sync_priority, std::nullopt,
                        StreamWindow{})
        .value();
}

Expected<Schedule>
listScheduleDefault(const LayerSchedulingProblem &lsp,
                    const StreamWindow &window,
                    const WindowCheckpoint &checkpoint,
                    StreamStats *stats)
{
    std::vector<double> main_priority;
    std::vector<double> sync_priority;
    defaultPriorities(lsp, main_priority, sync_priority);
    return listSchedule(lsp, main_priority, sync_priority, std::nullopt,
                        window, checkpoint, stats);
}

} // namespace dcmbqc

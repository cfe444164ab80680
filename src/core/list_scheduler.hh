/**
 * @file
 * Priority-based list scheduling for the layer scheduling problem
 * (the baseline heuristic of Section IV-B and the rescheduling
 * primitive inside BDIR). Default priorities follow the paper: a
 * main task J_{i,j} has priority j; a synchronization task S_k for
 * (J_{i,j}, J_{i',j'}) has priority (j + j') / 2.
 */

#ifndef DCMBQC_CORE_LIST_SCHEDULER_HH
#define DCMBQC_CORE_LIST_SCHEDULER_HH

#include <optional>
#include <vector>

#include "api/status.hh"
#include "core/lsp.hh"
#include "core/stream_window.hh"

namespace dcmbqc
{

/** Pins one task to a requested time slot (used by BDIR). */
struct TaskPin
{
    /** True when the pinned task is a main task, else a sync task. */
    bool isMain = true;

    /** Index of the pinned task. */
    int task = -1;

    /** Requested start slot (earliest feasible slot >= this wins
     *  when the exact slot cannot be met). */
    TimeSlot slot = 0;
};

/**
 * Greedy slot-by-slot list scheduler.
 *
 * At each time slot, candidates are processed in increasing
 * priority: a main task occupies its whole QPU; a sync task occupies
 * one connection-capacity unit on both its QPUs. Per-QPU main order
 * is enforced by only offering each QPU's lowest unscheduled index.
 *
 * The slot loop is monotone, so it can stop at the end of every
 * window of `window.size` slots (0 = one window over the whole
 * makespan) and fire `checkpoint` there and once at the end; a
 * non-OK status aborts the run and is returned unchanged. The window
 * never changes the schedule. When `stats` is non-null, the windows
 * closed and the resident sync-task count (`schedulerLivePeak`) are
 * merged into it on success.
 *
 * @param main_priority Priority per main task (lower runs earlier).
 * @param sync_priority Priority per sync task.
 * @param pin Optional task pin (BDIR's PINANDRESCHEDULE).
 */
Expected<Schedule> listSchedule(const LayerSchedulingProblem &lsp,
                                const std::vector<double> &main_priority,
                                const std::vector<double> &sync_priority,
                                const std::optional<TaskPin> &pin,
                                const StreamWindow &window,
                                const WindowCheckpoint &checkpoint = {},
                                StreamStats *stats = nullptr);

/** List scheduling with the paper's default priorities. */
Schedule listScheduleDefault(const LayerSchedulingProblem &lsp);

/** Default priorities, windowed as in `listSchedule` (ScheduleList). */
Expected<Schedule> listScheduleDefault(const LayerSchedulingProblem &lsp,
                                       const StreamWindow &window,
                                       const WindowCheckpoint &checkpoint,
                                       StreamStats *stats = nullptr);

} // namespace dcmbqc

#endif // DCMBQC_CORE_LIST_SCHEDULER_HH

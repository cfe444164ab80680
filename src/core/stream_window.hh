/**
 * @file
 * Windowing contract of the streaming compile path. A `StreamWindow`
 * bounds how much input the windowed stages ingest between
 * checkpoints — gates for the pattern builder, time slots for the
 * list scheduler — and `StreamStats` accumulates the high-water marks
 * that make the memory claims machine-checkable (max live frontier
 * nodes / pending edges / estimated live bytes).
 *
 * The window is an execution knob, never a semantic one: for any
 * window size (including 0 = one window over the whole input) the
 * streaming stages produce byte-identical patterns, partitions, and
 * schedules. Only the report's stage list tells a windowed compile
 * of a Circuit entry (PatternStream) from an unwindowed one
 * (Transpile + PatternBuild). Checkpoints fired between windows are
 * where cancellation tokens, deadlines, and progress observers get a
 * turn inside a pass instead of only between passes.
 */

#ifndef DCMBQC_CORE_STREAM_WINDOW_HH
#define DCMBQC_CORE_STREAM_WINDOW_HH

#include <algorithm>
#include <cstdint>
#include <functional>

#include "api/status.hh"

namespace dcmbqc
{

/** Bounded-frontier ingest policy of one windowed stage. */
struct StreamWindow
{
    /**
     * Units of input per window: gates for pattern construction,
     * time slots for scheduling. 0 runs the
     * whole input as a single window (checkpoints still fire once at
     * the end of the stage).
     */
    std::uint32_t size = 0;

    /** True when windowing is active (size > 0). */
    bool active() const { return size > 0; }
};

/**
 * One settled-progress notification fired at a window boundary.
 * `index` counts windows within the current stage from 0; the unit
 * of `settled` / `total` is stage-specific (gates, slots). `total`
 * is 0 when the stage cannot know its input size up front (a
 * generator-backed circuit stream).
 */
struct WindowEvent
{
    std::uint32_t index = 0;
    std::uint64_t settled = 0;
    std::uint64_t total = 0;

    /** Live frontier size at the boundary, in stage units. */
    std::uint64_t frontierLive = 0;
};

/**
 * Checkpoint hook a windowed stage calls between windows: returns
 * non-OK (Cancelled / DeadlineExceeded) to abort the stage
 * mid-input. Installed by the driver so the same hook consults the
 * request's CancellationToken and fans out to PassObserver::onWindow.
 */
using WindowCheckpoint = std::function<Status(const WindowEvent &)>;

/**
 * High-water marks of one streaming compile, accumulated across the
 * windowed stages. All counters are monotone maxima or totals, so
 * merging two stage contributions is max/sum per field.
 */
struct StreamStats
{
    /** Windows completed across all windowed stages. */
    std::uint64_t windows = 0;

    /** Gates consumed through the streaming front end. */
    std::uint64_t opsStreamed = 0;

    /** Max simultaneously live frontier nodes (open wires). */
    std::uint64_t frontierNodePeak = 0;

    /** Max simultaneously undecided (pending) edge entries. */
    std::uint64_t pendingEdgePeak = 0;

    /**
     * Estimated peak bytes of the pattern builder's live frontier
     * state (frontier nodes and pending-edge entries; excludes the
     * settled output containers, which are O(program) by contract).
     */
    std::uint64_t liveBytesPeak = 0;

    /** Max simultaneously unscheduled sync tasks in the scheduler. */
    std::uint64_t schedulerLivePeak = 0;

    /** Merge another stage's contribution into this one. */
    void
    merge(const StreamStats &other)
    {
        windows += other.windows;
        opsStreamed += other.opsStreamed;
        frontierNodePeak =
            std::max(frontierNodePeak, other.frontierNodePeak);
        pendingEdgePeak =
            std::max(pendingEdgePeak, other.pendingEdgePeak);
        liveBytesPeak = std::max(liveBytesPeak, other.liveBytesPeak);
        schedulerLivePeak =
            std::max(schedulerLivePeak, other.schedulerLivePeak);
    }
};

} // namespace dcmbqc

#endif // DCMBQC_CORE_STREAM_WINDOW_HH

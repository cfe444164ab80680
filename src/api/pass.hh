/**
 * @file
 * The pass framework behind `CompilerDriver`: the Figure-2 pipeline
 * is decomposed into named passes over a shared `PassContext`
 * blackboard, sequenced by a small `PassManager` that times every
 * pass, notifies observers, and stops at the first failure. This is
 * the driver/pass separation that lets tooling (benchmark
 * harnesses, a future compile service) instrument or re-stage the
 * pipeline without forking the monolithic entry point.
 */

#ifndef DCMBQC_API_PASS_HH
#define DCMBQC_API_PASS_HH

#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/cancellation.hh"
#include "api/status.hh"
#include "circuit/circuit_stream.hh"
#include "circuit/transpile.hh"
#include "compiler/single_qpu.hh"
#include "core/bdir.hh"
#include "core/lsp.hh"
#include "core/pipeline.hh"
#include "core/stream_window.hh"
#include "graph/digraph.hh"
#include "graph/graph.hh"
#include "mbqc/pattern.hh"

namespace dcmbqc
{

class CompileRequest;
class NoiseModel;
class Pass;

/**
 * Shared blackboard the passes read from and write to. The driver
 * seeds it from the request's entry point; each pass fills in the
 * artifacts later passes depend on.
 */
struct PassContext
{
    /** Normalized configuration (partition.k == numQpus). */
    DcMbqcConfig config;

    /**
     * Borrowed from the request; consulted by the PassManager at
     * every pass boundary (null = not cancellable).
     */
    const CancellationToken *cancel = nullptr;

    /** Borrowed from the request; null for non-circuit entries. */
    const Circuit *circuit = nullptr;

    /**
     * Gate source of the streaming front end; null outside the
     * streaming path. Points at the request's stream for
     * CircuitStream entries, or at `streamStorage` when the driver
     * wraps a Circuit entry for windowed execution.
     */
    CircuitStream *stream = nullptr;

    /** Backing storage when the driver wraps a borrowed circuit. */
    std::unique_ptr<CircuitStream> streamStorage;

    /** Windowed-ingest size of the streaming stages (0 = off). */
    StreamWindow window;

    /**
     * Installed by the driver: fired by the windowed stages between
     * windows, consulting the cancellation token and fanning out to
     * PassObserver::onWindow. Null runs the stages checkpoint-free.
     */
    WindowCheckpoint windowCheckpoint;

    /** High-water marks accumulated by the streaming stages. */
    StreamStats streamStats;

    /**
     * Borrowed from the driver; when non-null, PartitionPass and
     * RefineBdirPass optimize composite noise survival instead of
     * modularity / tau_photon (src/noise/).
     */
    const NoiseModel *noise = nullptr;

    /** Filled by TranspilePass. */
    std::optional<JCircuit> jcircuit;

    /**
     * Pattern / graph / deps views. Borrowed from the request when
     * it supplied the artifact (the request outlives the compile
     * call), otherwise pointing into the *Storage members a pass
     * filled. Passes and the driver read through the views only.
     */
    const Pattern *pattern = nullptr;
    const Graph *graph = nullptr;
    const Digraph *deps = nullptr;

    /** Backing storage for artifacts derived by the passes. */
    std::optional<Pattern> patternStorage;
    std::optional<Digraph> depsStorage;

    /** Filled by PartitionPass. */
    std::optional<AdaptiveResult> partitionResult;

    /** Filled by PlaceLocalPass. */
    std::vector<LocalSchedule> localSchedules;
    std::optional<LayerSchedulingProblem> lsp;

    /** Filled by ScheduleListPass, refined by RefineBdirPass. */
    std::optional<Schedule> schedule;
    BdirStats bdirStats;

    /** Filled by PlaceBaselinePass (baseline pipeline only). */
    std::optional<BaselineResult> baseline;

    /** Free-form notes surfaced in the final report. */
    std::vector<std::string> warnings;

    /**
     * One-line summary set by the currently running pass; the
     * PassManager moves it into that pass's StageReport.
     */
    std::string stageNote;

    /**
     * Set by the PassManager for the duration of each pass's run()
     * so mid-pass hooks (the window checkpoint) can attribute their
     * events to a pass. Null between passes.
     */
    const Pass *currentPass = nullptr;
};

/** One named stage of the pipeline. Stateless and thread-safe. */
class Pass
{
  public:
    virtual ~Pass() = default;

    /** Stable stage name ("Partition", "RefineBdir"...). */
    virtual const char *name() const = 0;

    /** Run on the blackboard; non-OK aborts the pipeline. */
    virtual Status run(PassContext &ctx) const = 0;
};

/** Wall-clock + outcome record of one executed pass. */
struct StageReport
{
    std::string pass;
    double millis = 0.0;
    Status status;

    /** One-line pass-specific summary ("4 parts, 37 cut edges"). */
    std::string note;
};

/**
 * Observer hooks fired around every pass. Callbacks are serialized
 * by the driver, so one observer instance may be shared across a
 * batch compilation.
 */
class PassObserver
{
  public:
    virtual ~PassObserver() = default;

    virtual void
    onPassBegin(const std::string &label, const Pass &pass)
    {
        (void)label;
        (void)pass;
    }

    virtual void
    onPassEnd(const std::string &label, const Pass &pass,
              const StageReport &report)
    {
        (void)label;
        (void)pass;
        (void)report;
    }

    /**
     * Fired between windows of a streaming pass (PatternStream,
     * ScheduleList) while the pass is running — the only hook that
     * reports progress *inside* a pass. Serialized like the other
     * hooks. Default: ignore.
     */
    virtual void
    onWindow(const std::string &label, const Pass &pass,
             const WindowEvent &event)
    {
        (void)label;
        (void)pass;
        (void)event;
    }
};

/** Owns an ordered pass list and runs it over a context. */
class PassManager
{
  public:
    PassManager &add(std::unique_ptr<Pass> pass);

    /** Observers are borrowed and must outlive run(). */
    PassManager &observe(PassObserver *observer);

    /**
     * Run all passes in order, timing each and appending one
     * StageReport per executed pass to `stages`. Stops at (and
     * returns) the first non-OK status; the failing pass's stage
     * report is still appended.
     *
     * When `ctx.cancel` is set, the token is consulted before every
     * pass (the same boundaries the observer hooks fire at): a
     * cancelled or deadline-expired request aborts with `Cancelled` /
     * `DeadlineExceeded`, recording a zero-millisecond stage for the
     * pass that never ran so the report shows where the pipeline
     * stopped.
     *
     * @param label Request label passed through to observers.
     */
    Status run(PassContext &ctx, std::vector<StageReport> &stages,
               const std::string &label = "") const;

    std::size_t numPasses() const { return passes_.size(); }

  private:
    std::vector<std::unique_ptr<Pass>> passes_;
    std::vector<PassObserver *> observers_;
};

} // namespace dcmbqc

#endif // DCMBQC_API_PASS_HH

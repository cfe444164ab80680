/**
 * @file
 * `CompilerDriver`: the public, non-aborting entry point of the
 * DC-MBQC compiler. The driver assembles the pass pipeline that
 * matches a request's entry point, runs it through the PassManager
 * (timing every stage, notifying observers), and returns a
 * `CompileReport` through the Status/Expected error channel —
 * invalid configurations or malformed requests come back as
 * `InvalidConfig` / `InvalidArgument` instead of aborting the
 * process.
 *
 * `compileBatch` fans a vector of requests across a thread pool;
 * every stochastic pass is seeded from the options, so a batch run
 * is bit-identical to compiling the same requests sequentially.
 */

#ifndef DCMBQC_API_DRIVER_HH
#define DCMBQC_API_DRIVER_HH

#include <mutex>
#include <optional>
#include <string>
#include <vector>

#include "api/options.hh"
#include "api/pass.hh"
#include "api/request.hh"
#include "api/status.hh"
#include "cache/cache_key.hh"
#include "cache/compile_cache.hh"
#include "core/pipeline.hh"
#include "exec/options.hh"
#include "exec/program.hh"
#include "exec/result.hh"
#include "portfolio/report.hh"

namespace dcmbqc
{

/**
 * Everything a caller learns from one compilation: the result
 * payload plus per-stage wall-clock timings, pass notes, and
 * normalization warnings.
 */
struct CompileReport
{
    /** Label copied from the request. */
    std::string label;

    /** Filled by the distributed pipeline. */
    std::optional<DcMbqcResult> distributed;

    /** Filled by the baseline pipeline. */
    std::optional<BaselineResult> baseline;

    /**
     * The measurement pattern the pipeline lowered the circuit to
     * (Circuit entry point only; absent when the request already
     * supplied a pattern or entered at the graph level). Retained in
     * the report — and in cached artifacts — so `compileAndExecute`
     * and the compile service build execution programs from it
     * directly: a warm cache hit does zero re-lowering.
     */
    std::optional<Pattern> pattern;

    /** One entry per executed pass, in execution order. */
    std::vector<StageReport> stages;

    /** Config normalizations and pass warnings. */
    std::vector<std::string> warnings;

    /** Total wall-clock across all passes. */
    double totalMillis = 0.0;

    /**
     * High-water marks of the streaming stages (windows completed,
     * peak frontier nodes / pending edges / live bytes, resident
     * sync tasks). All zero when no streaming stage ran. Execution
     * telemetry, not compile content: never serialized into cached
     * artifacts. (The artifact still records which front-end
     * stages ran, PatternStream or Transpile + PatternBuild, so its
     * bytes depend on whether a window was set.)
     */
    StreamStats streaming;

    /**
     * Peak resident set size of the process right after the pipeline
     * ran (bytes; 0 when the platform cannot report it). Monotone
     * per process, so it upper-bounds this compile's footprint.
     * Telemetry like `streaming`; not serialized into artifacts.
     */
    std::uint64_t peakRssBytes = 0;

    /**
     * True when this report was replayed from the compile cache; no
     * pass ran and `stages` holds the *original* compilation's
     * stage timings.
     */
    bool cacheHit = false;

    /**
     * Content address of the (request, normalized config, seed)
     * triple; 0 when the driver ran without a cache.
     */
    std::uint64_t cacheKey = 0;

    /**
     * Independent second hash of the same triple, stored in the
     * cached artifact and re-checked on every hit so a 64-bit key
     * collision cannot replay a foreign schedule. Internal collision
     * guard; 0 when the driver ran without a cache.
     */
    std::uint64_t cacheVerifier = 0;

    /**
     * Cache counter snapshot taken right after this call's cache
     * interaction; absent when the driver ran without a cache.
     */
    std::optional<CacheStats> cacheStats;

    /**
     * Race table of a portfolio compile (`CompileOptions::
     * portfolio(K)` with K > 1): one entry per raced strategy plus
     * the winner index. The rest of this report is the *winning
     * candidate's* report. Absent for K=1 compiles.
     */
    std::optional<PortfolioReport> portfolio;

    /**
     * One entry per backend run by `compileAndExecute`, in request
     * order: outcome histograms, shot statistics, and per-backend
     * wall-clock. Empty for compile-only calls — and always empty in
     * cache-stored artifacts, since execution happens after the
     * cache insert and replays re-execute with the caller's seed.
     */
    std::vector<ExecResult> executions;

    /**
     * Record one backend execution: appends a timed "Execute[...]"
     * stage, accumulates totalMillis, and stores the result in
     * `executions`. Shared by compileAndExecute and `dcmbqc run` so
     * both produce identically-shaped reports.
     */
    void addExecution(ExecResult result);

    /** Distributed result accessor (panics when absent). */
    const DcMbqcResult &result() const;

    /** Baseline result accessor (panics when absent). */
    const BaselineResult &baselineResult() const;

    /** Multi-line human-readable stage table. */
    std::string describeStages() const;
};

/**
 * Pass-based compilation driver. One driver holds validated-on-use
 * options and may serve any number of compile calls, including
 * concurrently (it is logically const and all passes are
 * stateless).
 */
class CompilerDriver
{
  public:
    explicit CompilerDriver(CompileOptions options = {});

    const CompileOptions &options() const { return options_; }

    /**
     * Register an observer fired around every pass of every
     * subsequent compile call. Borrowed pointer; must outlive the
     * driver's compile calls. Callbacks are serialized per driver,
     * so one observer may be shared across a batch. Do not start
     * another compile on the *same* driver from inside a callback
     * (the serialization lock is not reentrant).
     */
    CompilerDriver &addObserver(PassObserver *observer);

    /**
     * Run the distributed Figure-2 pipeline on one request.
     * Returns InvalidConfig / InvalidArgument without side effects
     * when options or request fail validation.
     */
    Expected<CompileReport> compile(const CompileRequest &request) const;

    /** Run the monolithic OneQ-style baseline pipeline. */
    Expected<CompileReport>
    compileBaseline(const CompileRequest &request) const;

    /**
     * Execute a program on the backend selected by `exec_options`
     * (exec/backend.hh). Thin, validated dispatch into the
     * ExecutionBackend registry; exists on the driver so compile and
     * execute share one front door.
     */
    Expected<ExecResult> execute(const ExecProgram &program,
                                 const ExecOptions &exec_options) const;

    /**
     * Compile, then execute on every backend of `backends` in
     * order. The compiled schedule is attached to the program, so
     * schedule-level backends (mc-loss) run against exactly what
     * compile() produced. Each execution is appended to
     * `CompileReport::executions` plus a timed "Execute[...]" stage;
     * the first failing backend fails the whole call.
     */
    Expected<CompileReport>
    compileAndExecute(const CompileRequest &request,
                      const std::vector<ExecOptions> &backends) const;

    /** Convenience: compile and execute on one backend. */
    Expected<CompileReport>
    compileAndExecute(const CompileRequest &request,
                      const ExecOptions &exec_options) const;

    /**
     * Compile a batch of requests across `num_threads` workers
     * (0 = hardware concurrency). Results are positionally aligned
     * with `requests`; a failed request yields its error Status in
     * place without affecting the others. Deterministic: equal to
     * calling compile() sequentially on each request.
     */
    std::vector<Expected<CompileReport>>
    compileBatch(const std::vector<CompileRequest> &requests,
                 int num_threads = 0) const;

  private:
    /**
     * @param key_hint Precomputed cache key pair for this (request,
     *        options) pair, or null to compute it here. compileBatch
     *        passes the keys it already derived for deduplication so
     *        each payload is serialized only once.
     */
    Expected<CompileReport>
    compileImpl(const CompileRequest &request, bool baseline,
                const CacheKeyPair *key_hint = nullptr) const;

    CompileOptions options_;
    std::vector<PassObserver *> observers_;

    /** Serializes observer callbacks across batch workers. */
    mutable std::mutex observerMutex_;
};

} // namespace dcmbqc

#endif // DCMBQC_API_DRIVER_HH

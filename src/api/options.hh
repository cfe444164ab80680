/**
 * @file
 * Fluent, validating configuration builder of the public API. Wraps
 * `DcMbqcConfig` / `SingleQpuConfig` / `BdirConfig` behind chainable
 * setters, checks every field's documented domain up front (instead
 * of hitting a DCMBQC_ASSERT deep inside a pass), and performs the
 * documented normalizations:
 *
 *  - `partition.k` always follows `numQpus`: the adaptive
 *    partitioner must produce exactly one part per QPU, so any
 *    user-supplied `partition.k` is overwritten, and the driver
 *    surfaces it as a report warning when the values disagree.
 *  - `seed(s)` plumbs one seed into both stochastic passes
 *    (adaptive partitioning and BDIR annealing) so a whole batch
 *    run is reproducible from a single number.
 */

#ifndef DCMBQC_API_OPTIONS_HH
#define DCMBQC_API_OPTIONS_HH

#include <cstdint>
#include <memory>
#include <optional>
#include <string>
#include <vector>

#include "api/status.hh"
#include "core/pipeline.hh"
#include "noise/config.hh"

namespace dcmbqc
{

class CompileCache;

/** Fluent builder over the full compiler configuration. */
class CompileOptions
{
  public:
    /** Starts from the paper's Section V-A defaults. */
    CompileOptions() = default;

    /** Adopt an existing low-level config (e.g. a service job's). */
    static CompileOptions fromConfig(const DcMbqcConfig &config);

    /** Adopt a baseline config (grid + placement order, 1 QPU). */
    static CompileOptions fromConfig(const SingleQpuConfig &config);

    // Distributed system shape ---------------------------------------------
    CompileOptions &numQpus(int qpus);
    CompileOptions &kmax(int kmax);

    // Per-QPU resource grid ------------------------------------------------
    CompileOptions &gridSize(int size);
    CompileOptions &resourceState(ResourceStateType type);
    CompileOptions &plRatio(int ratio);
    CompileOptions &reservedBoundary(int cells);

    // Adaptive partitioning (Algorithm 2) ----------------------------------
    CompileOptions &epsilonQ(double epsilon);
    CompileOptions &alphaMax(double alpha);
    CompileOptions &gamma(double gamma);

    // Scheduling -----------------------------------------------------------
    CompileOptions &useBdir(bool enabled);
    CompileOptions &bdirInitialTemperature(double t0);
    CompileOptions &bdirCoolingRate(double alpha);
    CompileOptions &bdirMaxIterations(int iterations);
    CompileOptions &placementOrder(PlacementOrder order);

    /**
     * Deterministic seed for every stochastic pass (partitioning
     * probes and BDIR annealing). Two drivers built from options
     * differing only in unrelated fields produce bit-identical
     * schedules for equal seeds.
     */
    CompileOptions &seed(std::uint64_t seed);

    /**
     * Attach a content-addressed compile cache. Every compile call
     * through a driver built from these options first looks up the
     * serialized (request, normalized config, seed) triple and, on a
     * hit, replays the stored schedule bit-identically without
     * running any pass; misses run the pipeline and populate the
     * cache. One cache instance may be shared across drivers and
     * batch workers (it is thread-safe). Pass nullptr to detach.
     */
    CompileOptions &cache(std::shared_ptr<CompileCache> cache);

    /** The attached cache; null when caching is disabled. */
    const std::shared_ptr<CompileCache> &cacheStore() const
    {
        return cache_;
    }

    /**
     * Attach a noise configuration (src/noise/). A non-vacuous
     * config makes partitioning and BDIR refinement optimize
     * composite noise survival, and becomes part of the compile's
     * cache identity — noise-distinct requests never alias. A
     * vacuous (zero-noise) config changes neither the compiled
     * result nor the cache key.
     */
    CompileOptions &noise(NoiseConfig config);

    /** The attached noise config; nullopt when none. */
    const std::optional<NoiseConfig> &noiseConfig() const
    {
        return noise_;
    }

    /**
     * Race `candidates` compile strategies and keep the best
     * schedule. 1 (the default) compiles the configured strategy
     * alone; K > 1 makes `CompilerDriver::compile` fan K variants
     * of these options (seeds, BDIR budgets, placement orders,
     * partition knobs — see src/portfolio/strategy.hh) across the
     * thread pool, score each candidate's schedule by composite
     * log-survival, and return the winner with a per-candidate
     * `PortfolioReport` attached. Candidate 0 is always this exact
     * configuration, so a race never returns a schedule that
     * survives worse than the K=1 compile. Does not enter the cache
     * key: each candidate caches under its own configuration.
     */
    CompileOptions &portfolio(int candidates);

    /** Raced strategy count; 1 = portfolio mode off. */
    int portfolioCandidates() const { return portfolio_; }

    /**
     * Windowed-ingest size of the streaming compile stages: gates
     * per window in the pattern builder, time slots per window in
     * the scheduler. 0 (the default) runs each stage as a single
     * window. An execution knob, not a semantic one: the pattern,
     * partition, schedules and metrics are identical for every
     * window size, so the window does not enter the cache key; it
     * bounds live memory and sets how often cancellation checks and
     * `PassObserver::onWindow` progress events fire mid-pass. Only
     * the stage list differs (a windowed Circuit entry runs
     * PatternStream, not Transpile + PatternBuild; a cache hit
     * replays the storing compile's list). Must be >= 0 (validated).
     */
    CompileOptions &window(int gates_per_window);

    /** Streaming window size; 0 = whole input as one window. */
    int windowSize() const { return window_; }

    /**
     * Check every field against its documented domain. Returns
     * InvalidConfig listing *all* violations (semicolon-separated)
     * rather than just the first, so a service can report the full
     * problem set in one round trip.
     */
    Status validate() const;

    /**
     * The validated, normalized low-level config. `partition.k` is
     * set to `numQpus`; when the builder held a conflicting value, a
     * note is appended to `normalizations`.
     */
    Expected<DcMbqcConfig>
    build(std::vector<std::string> *normalizations = nullptr) const;

    /** Grid / order subset used by the monolithic baseline. */
    SingleQpuConfig baselineConfig() const;

    /** Raw view (pre-normalization) for introspection. */
    const DcMbqcConfig &config() const { return config_; }

  private:
    DcMbqcConfig config_;
    std::shared_ptr<CompileCache> cache_;
    std::optional<NoiseConfig> noise_;
    int portfolio_ = 1;
    int window_ = 0;
};

} // namespace dcmbqc

#endif // DCMBQC_API_OPTIONS_HH

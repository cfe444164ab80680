#include "api/driver.hh"

#include <algorithm>
#include <cstdio>
#include <memory>
#include <mutex>
#include <sstream>

#include <unordered_map>

#include "api/passes.hh"
#include "common/resource.hh"
#include "common/thread_pool.hh"
#include "cache/cache_key.hh"
#include "portfolio/racer.hh"
#include "cache/compile_cache.hh"
#include "exec/backend.hh"
#include "noise/model.hh"
#include "serialize/codecs.hh"

namespace dcmbqc
{

void
CompileReport::addExecution(ExecResult result)
{
    StageReport stage;
    stage.pass = "Execute[" + result.backend + "]";
    stage.millis = result.wallMillis;
    stage.note = std::to_string(result.completedShots) + "/" +
        std::to_string(result.shots) + " shots, " +
        std::to_string(result.threads) + " thread(s)";
    stages.push_back(std::move(stage));
    totalMillis += result.wallMillis;
    executions.push_back(std::move(result));
}

const DcMbqcResult &
CompileReport::result() const
{
    if (!distributed)
        panic("CompileReport::result(): no distributed result");
    return *distributed;
}

const BaselineResult &
CompileReport::baselineResult() const
{
    if (!baseline)
        panic("CompileReport::baselineResult(): no baseline result");
    return *baseline;
}

std::string
CompileReport::describeStages() const
{
    std::ostringstream out;
    for (const auto &stage : stages) {
        out << "  " << stage.pass;
        for (std::size_t pad = stage.pass.size(); pad < 14; ++pad)
            out << ' ';
        char millis[32];
        std::snprintf(millis, sizeof(millis), "%8.2f ms",
                      stage.millis);
        out << millis;
        if (!stage.status.ok())
            out << "  " << stage.status.toString();
        else if (!stage.note.empty())
            out << "  " << stage.note;
        out << '\n';
    }
    return out.str();
}

namespace
{

/**
 * Serializes observer callbacks (through the owning driver's
 * mutex) so one observer instance can be shared across the batch
 * worker threads.
 */
class SerializedObserver : public PassObserver
{
  public:
    SerializedObserver(const std::vector<PassObserver *> &targets,
                       std::mutex &mutex)
        : targets_(targets), mutex_(mutex)
    {
    }

    void
    onPassBegin(const std::string &label, const Pass &pass) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (PassObserver *target : targets_)
            target->onPassBegin(label, pass);
    }

    void
    onPassEnd(const std::string &label, const Pass &pass,
              const StageReport &report) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (PassObserver *target : targets_)
            target->onPassEnd(label, pass, report);
    }

    void
    onWindow(const std::string &label, const Pass &pass,
             const WindowEvent &event) override
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (PassObserver *target : targets_)
            target->onWindow(label, pass, event);
    }

  private:
    const std::vector<PassObserver *> &targets_;
    std::mutex &mutex_;
};

void
addFrontEndPasses(PassManager &manager, const PassContext &ctx,
                  CompileRequest::EntryPoint entry)
{
    switch (entry) {
      case CompileRequest::EntryPoint::Circuit:
      case CompileRequest::EntryPoint::CircuitStream:
        if (ctx.stream != nullptr) {
            manager.add(std::make_unique<PatternStreamPass>());
        } else {
            manager.add(std::make_unique<TranspilePass>());
            manager.add(std::make_unique<PatternBuildPass>());
        }
        break;
      case CompileRequest::EntryPoint::Pattern:
        manager.add(std::make_unique<PatternBuildPass>());
        break;
      case CompileRequest::EntryPoint::Graph:
        break;
    }
}

} // namespace

CompilerDriver::CompilerDriver(CompileOptions options)
    : options_(std::move(options))
{
}

CompilerDriver &
CompilerDriver::addObserver(PassObserver *observer)
{
    if (observer)
        observers_.push_back(observer);
    return *this;
}

Expected<CompileReport>
CompilerDriver::compile(const CompileRequest &request) const
{
    if (options_.portfolioCandidates() > 1) {
        RaceConfig config;
        config.candidates = options_.portfolioCandidates();
        PortfolioRacer racer(options_, config);
        auto outcome = racer.race(request);
        if (!outcome.ok())
            return outcome.status();
        CompileReport report = std::move(outcome->report);
        // The race's wall-clock beyond the winner's own pipeline is
        // the portfolio overhead (losers + scoring); surfacing it
        // as a stage keeps totalMillis ~= observed wall time and
        // feeds the service's per-stage aggregates.
        StageReport stage;
        stage.pass = "Portfolio";
        stage.millis = std::max(
            0.0, outcome->race.raceMillis - report.totalMillis);
        stage.note =
            std::to_string(outcome->race.requested) +
            " strategies raced, winner: " +
            outcome->race
                .candidates[static_cast<std::size_t>(
                    outcome->race.winnerIndex)]
                .strategy;
        report.totalMillis += stage.millis;
        report.stages.push_back(std::move(stage));
        report.portfolio = std::move(outcome->race);
        return report;
    }
    return compileImpl(request, /*baseline=*/false);
}

Expected<CompileReport>
CompilerDriver::compileBaseline(const CompileRequest &request) const
{
    return compileImpl(request, /*baseline=*/true);
}

Expected<CompileReport>
CompilerDriver::compileImpl(const CompileRequest &request,
                            bool baseline,
                            const CacheKeyPair *key_hint) const
{
    Status status = request.validate();
    if (!status.ok())
        return status;

    // A request that is already cancelled or past its deadline must
    // not even touch the cache: the caller stopped listening.
    if (request.cancellation()) {
        status = request.cancellation()->check();
        if (!status.ok())
            return status;
    }

    CompileReport report;
    report.label = request.label();

    auto config = options_.build(&report.warnings);
    if (!config.ok())
        return config.status();

    // Resolve the noise config once: a non-vacuous model feeds the
    // noise-aware passes AND the cache key; vacuous or absent noise
    // leaves both exactly as in a noise-free build.
    std::optional<NoiseModel> noise_model;
    const NoiseConfig *key_noise = nullptr;
    if (options_.noiseConfig()) {
        auto built = buildNoiseModel(*options_.noiseConfig());
        if (!built.ok())
            return built.status();
        if (!built->vacuous()) {
            noise_model = std::move(built.value());
            key_noise = &*options_.noiseConfig();
        }
    }

    CompileCache *cache = options_.cacheStore().get();
    CacheKeyPair key;
    if (cache) {
        key = key_hint ? *key_hint
                       : computeCacheKey(request, *config, baseline,
                                         key_noise);
        if (auto bytes = cache->lookup(key.key)) {
            auto cached = decodeCompileReportArtifact(*bytes);
            // The stored verifier must match: a 64-bit key collision
            // with different content is a miss, never a replay of a
            // foreign schedule. A corrupted entry (e.g. a damaged
            // disk-tier file) equally falls through to a recompile
            // that overwrites it.
            if (cached.ok() &&
                cached->cacheVerifier == key.verifier) {
                CompileReport replay = std::move(cached.value());
                // Label is report metadata, not part of the content
                // address; reflect the *current* request's label.
                replay.label = request.label();
                replay.cacheHit = true;
                replay.cacheKey = key.key;
                replay.cacheStats = cache->stats();
                return replay;
            }
            // Unusable entry: reclassify the lookup as a miss and
            // drop it so the counters match what really happened.
            cache->discard(key.key);
        }
    }

    PassContext ctx;
    ctx.config = *config;
    ctx.cancel = request.cancellation();
    if (noise_model)
        ctx.noise = &*noise_model;
    ctx.window.size = options_.windowSize() > 0
        ? static_cast<std::uint32_t>(options_.windowSize())
        : 0;

    switch (request.entryPoint()) {
      case CompileRequest::EntryPoint::Circuit:
        ctx.circuit = &request.circuit();
        if (ctx.window.active()) {
            // Windowed execution of a materialized circuit: wrap it
            // in a borrowing stream so the fused PatternStream pass
            // runs. Byte-identical output either way; the wrap only
            // bounds transient memory and enables mid-pass
            // checkpoints.
            ctx.streamStorage =
                std::make_unique<VectorCircuitStream>(*ctx.circuit);
            ctx.stream = ctx.streamStorage.get();
        }
        break;
      case CompileRequest::EntryPoint::CircuitStream:
        ctx.stream = &request.stream();
        break;
      case CompileRequest::EntryPoint::Pattern:
        ctx.pattern = &request.pattern();
        break;
      case CompileRequest::EntryPoint::Graph:
        ctx.graph = &request.graph();
        ctx.deps = &request.deps();
        break;
    }

    SerializedObserver serialized(observers_, observerMutex_);
    ctx.windowCheckpoint = [&](const WindowEvent &event) -> Status {
        if (ctx.cancel) {
            Status mid = ctx.cancel->check();
            if (!mid.ok())
                return mid;
        }
        if (!observers_.empty() && ctx.currentPass != nullptr)
            serialized.onWindow(report.label, *ctx.currentPass,
                                event);
        return Status::okStatus();
    };

    PassManager manager;
    addFrontEndPasses(manager, ctx, request.entryPoint());
    if (baseline) {
        manager.add(std::make_unique<PlaceBaselinePass>());
    } else {
        manager.add(std::make_unique<PartitionPass>());
        manager.add(std::make_unique<PlaceLocalPass>());
        manager.add(std::make_unique<ScheduleListPass>());
        if (ctx.config.useBdir)
            manager.add(std::make_unique<RefineBdirPass>());
    }

    if (!observers_.empty())
        manager.observe(&serialized);

    status = manager.run(ctx, report.stages, report.label);
    for (const auto &stage : report.stages)
        report.totalMillis += stage.millis;
    if (!status.ok())
        return status;

    report.warnings.insert(report.warnings.end(),
                           ctx.warnings.begin(), ctx.warnings.end());

    // Telemetry only: the artifact codec never serializes these, so
    // cached bytes stay identical across window sizes and platforms.
    report.streaming = ctx.streamStats;
    report.peakRssBytes = peakRssBytes();

    // The imbalance and the schedule metrics read *ctx.graph, which
    // points into ctx.patternStorage on a Circuit entry: finish with
    // them before the pattern moves into the report below.
    if (baseline) {
        report.baseline = std::move(ctx.baseline);
    } else {
        DcMbqcResult result;
        result.partition = std::move(ctx.partitionResult->best);
        result.partitionModularity = ctx.partitionResult->modularity;
        result.partitionImbalance = result.partition.imbalance(*ctx.graph);
        result.numConnectors = ctx.partitionResult->cutEdges;
        result.localSchedules = std::move(ctx.localSchedules);
        result.metrics = evaluateSchedule(*ctx.lsp, *ctx.schedule);
        result.schedule = std::move(*ctx.schedule);
        report.distributed = std::move(result);
    }

    // Keep the pattern the front end built (Circuit entry): the
    // cached artifact then carries everything an execution needs,
    // so warm hits never re-lower the circuit.
    if (ctx.patternStorage)
        report.pattern = std::move(ctx.patternStorage);

    if (cache) {
        report.cacheKey = key.key;
        report.cacheVerifier = key.verifier;
        cache->insert(key.key, encodeCompileReportArtifact(report));
        report.cacheStats = cache->stats();
    }
    return report;
}

Expected<ExecResult>
CompilerDriver::execute(const ExecProgram &program,
                        const ExecOptions &exec_options) const
{
    return executeProgram(program, exec_options);
}

Expected<CompileReport>
CompilerDriver::compileAndExecute(
    const CompileRequest &request,
    const std::vector<ExecOptions> &backends) const
{
    if (backends.empty())
        return Status::invalidArgument(
            "compileAndExecute: no execution backends requested");
    // Vet every execution config before spending a pipeline run on
    // the compile: a typoed backend name must fail in microseconds.
    for (const ExecOptions &exec_options : backends) {
        const Status status = exec_options.validate();
        if (!status.ok())
            return status;
    }
    auto compiled = compile(request);
    if (!compiled.ok())
        return compiled.status();

    CompileReport report = std::move(compiled.value());
    // Prefer the pattern retained in the report (pipeline-built, or
    // replayed from the cache) over re-deriving it from the request:
    // this is what makes a warm hit do zero lowering.
    ExecProgram program = [&] {
        if (!report.pattern)
            return ExecProgram::fromRequest(request);
        std::string label = request.label();
        if (label.empty() &&
            request.entryPoint() == CompileRequest::EntryPoint::Circuit)
            label = request.circuit().name();
        return ExecProgram::fromPattern(*report.pattern,
                                        std::move(label));
    }();
    program.withSchedule(report.result());
    for (const ExecOptions &exec_options : backends) {
        if (request.cancellation()) {
            const Status cancel = request.cancellation()->check();
            if (!cancel.ok())
                return cancel;
        }
        auto result = execute(program, exec_options);
        if (!result.ok())
            return result.status();
        report.addExecution(std::move(result.value()));
    }
    return report;
}

Expected<CompileReport>
CompilerDriver::compileAndExecute(const CompileRequest &request,
                                  const ExecOptions &exec_options) const
{
    return compileAndExecute(
        request, std::vector<ExecOptions>{exec_options});
}

std::vector<Expected<CompileReport>>
CompilerDriver::compileBatch(
    const std::vector<CompileRequest> &requests,
    int num_threads) const
{
    const std::size_t n = requests.size();
    std::vector<Expected<CompileReport>> results;
    results.reserve(n);
    for (std::size_t i = 0; i < n; ++i)
        results.emplace_back(Status::internal("request not executed"));
    if (n == 0)
        return results;

    int threads = num_threads > 0 ? num_threads
                                  : ThreadPool::defaultNumThreads();
    threads = std::min<int>(threads, static_cast<int>(n));

    // With a cache attached, duplicate requests are content-equal
    // and must not race each other through the pipeline: only the
    // first occurrence of every key is submitted in the first pool
    // round; the duplicates run as a second pool round and hit the
    // freshly warmed cache, skipping every pass. The keys derived
    // here are handed down so compileImpl does not re-serialize the
    // payloads.
    std::vector<CacheKeyPair> keys;
    std::vector<std::size_t> unique_indices;
    std::vector<std::size_t> duplicate_indices;
    unique_indices.reserve(n);
    if (options_.cacheStore()) {
        auto normalized = options_.build();
        if (normalized.ok()) {
            const NoiseConfig *key_noise =
                options_.noiseConfig() &&
                    noiseAffectsCompile(*options_.noiseConfig())
                ? &*options_.noiseConfig()
                : nullptr;
            keys.resize(n);
            std::unordered_map<std::uint64_t, std::size_t> first_seen;
            for (std::size_t i = 0; i < n; ++i) {
                keys[i] = computeCacheKey(requests[i], *normalized,
                                          /*baseline=*/false,
                                          key_noise);
                if (first_seen.emplace(keys[i].key, i).second)
                    unique_indices.push_back(i);
                else
                    duplicate_indices.push_back(i);
            }
        }
    }
    const bool keyed = !keys.empty();
    if (!keyed) {
        unique_indices.clear();
        for (std::size_t i = 0; i < n; ++i)
            unique_indices.push_back(i);
    }

    ThreadPool pool(threads);
    const auto submit = [&](std::size_t i) {
        pool.submit([this, &requests, &results, &keys, keyed, i] {
            // Distinct slots: no synchronization needed on write.
            results[i] = compileImpl(requests[i], /*baseline=*/false,
                                     keyed ? &keys[i] : nullptr);
        });
    };
    for (std::size_t i : unique_indices)
        submit(i);
    pool.wait();
    for (std::size_t i : duplicate_indices)
        submit(i);
    pool.wait();
    return results;
}

} // namespace dcmbqc

#include "portfolio/racer.hh"

#include <algorithm>
#include <chrono>
#include <cmath>
#include <condition_variable>
#include <memory>
#include <mutex>
#include <optional>
#include <utility>

#include "api/cancellation.hh"
#include "common/thread_pool.hh"
#include "exec/backend.hh"
#include "exec/loss_backend.hh"
#include "mbqc/dependency.hh"
#include "noise/analysis.hh"
#include "noise/model.hh"

namespace dcmbqc
{

namespace
{

double
elapsedMillis(std::chrono::steady_clock::time_point since)
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - since)
        .count();
}

/**
 * Composite log-survival of one candidate's schedule, charged
 * against the race's fixed scoring model over the schedule-derived
 * exposure — exactly what the schedule backend and mc-loss sample.
 */
Expected<double>
scoreSchedule(const CompileRequest &request,
              const CompileReport &report, const NoiseModel &model)
{
    if (!report.distributed)
        return Status::internal(
            "portfolio candidate produced no distributed result");
    const DcMbqcResult &result = *report.distributed;

    const Graph *graph = nullptr;
    Digraph deps_storage;
    const Digraph *deps = nullptr;
    switch (request.entryPoint()) {
      case CompileRequest::EntryPoint::Graph:
        graph = &request.graph();
        deps = &request.deps();
        break;
      case CompileRequest::EntryPoint::Pattern:
        graph = &request.pattern().graph();
        deps_storage = realTimeDependencyGraph(request.pattern());
        deps = &deps_storage;
        break;
      case CompileRequest::EntryPoint::Circuit:
      case CompileRequest::EntryPoint::CircuitStream:
        if (!report.pattern)
            return Status::internal(
                "portfolio candidate retained no pattern to score");
        graph = &report.pattern->graph();
        deps_storage = realTimeDependencyGraph(*report.pattern);
        deps = &deps_storage;
        break;
    }

    auto times =
        schedulePhotonTimes(result, graph->numNodes());
    if (!times.ok())
        return times.status();
    const NoiseExposure exposure = buildExposure(
        *graph, *deps, *times, &result.partition.assignment());
    return analyzeNoise(exposure, model).logSurvival;
}

/** Per-candidate slot (token is neither copyable nor movable). */
struct Slot
{
    CancellationToken token;
    std::optional<Expected<CompileReport>> report;
    double score = 0.0;
    bool scored = false;
    double wallMillis = 0.0;
};

} // namespace

PortfolioRacer::PortfolioRacer(CompileOptions base, RaceConfig config)
    : base_(std::move(base)), config_(config)
{
}

Expected<PortfolioRacer::Outcome>
PortfolioRacer::race(const CompileRequest &request) const
{
    const auto race_start = std::chrono::steady_clock::now();
    Status status = base_.validate();
    if (!status.ok())
        return status;
    status = request.validate();
    if (!status.ok())
        return status;
    const CancellationToken *parent = request.cancellation();
    if (parent) {
        status = parent->check();
        if (!status.ok())
            return status;
    }

    // Fixed scoring model: the user's budget when it has teeth,
    // else the reference budget, so strategies always compete on a
    // physical objective.
    NoiseConfig scoring = base_.noiseConfig().value_or(NoiseConfig{});
    auto model = buildNoiseModel(scoring);
    if (!model.ok())
        return model.status();
    if (model->vacuous()) {
        scoring = NoiseConfig{};
        scoring.add("delay-line")
            .add("connector", {{"insertion_loss_db", 1.5}});
        model = buildNoiseModel(scoring);
        if (!model.ok())
            return model.status();
    }

    // Candidates compile concurrently and a stream has one cursor,
    // so a streamed request races as its materialized circuit: the
    // two compile to the same schedules under the same cache key.
    std::optional<CompileRequest> drained;
    if (request.entryPoint() ==
        CompileRequest::EntryPoint::CircuitStream)
        drained = CompileRequest::fromCircuit(
            request.stream().materialize(), request.label());
    const CompileRequest &source = drained ? *drained : request;

    const int k = std::max(1, config_.candidates);
    const std::vector<Strategy> strategies =
        StrategySpace(base_).enumerate(k);

    std::vector<std::unique_ptr<Slot>> slots;
    slots.reserve(strategies.size());
    for (std::size_t i = 0; i < strategies.size(); ++i)
        slots.push_back(std::make_unique<Slot>());

    std::mutex mutex;
    std::condition_variable done_cv;
    int remaining = k;

    const int workers = std::min(
        k, config_.numThreads > 0 ? config_.numThreads
                                  : ThreadPool::defaultNumThreads());
    {
        ThreadPool pool(std::max(1, workers));
        for (int i = 0; i < k; ++i) {
            pool.submit([&, i] {
                Slot &slot = *slots[i];
                const auto start =
                    std::chrono::steady_clock::now();
                if (parent && parent->cancelled())
                    slot.token.cancel();
                CompileRequest candidate = source;
                candidate.withCancellation(&slot.token);
                const CompilerDriver driver(strategies[i].options);
                auto report = driver.compile(candidate);
                if (report.ok()) {
                    auto score =
                        scoreSchedule(candidate, *report, *model);
                    if (score.ok()) {
                        slot.score = *score;
                        slot.scored = true;
                    } else {
                        report = score.status();
                    }
                }
                slot.report.emplace(std::move(report));
                slot.wallMillis = elapsedMillis(start);
                {
                    std::lock_guard<std::mutex> lock(mutex);
                    --remaining;
                    // The default strategy is the pacesetter: once
                    // it is in, losers get graceMillis to wrap up.
                    if (i == 0 && config_.graceMillis >= 0) {
                        for (int j = 1; j < k; ++j) {
                            if (config_.graceMillis == 0)
                                slots[j]->token.cancel();
                            else
                                slots[j]->token
                                    .setDeadlineAfterMillis(
                                        config_.graceMillis);
                        }
                    }
                }
                done_cv.notify_all();
            });
        }
        // Babysit the race instead of a blind pool.wait(): a parent
        // cancel / deadline must propagate to every candidate token
        // while they are mid-pipeline.
        std::unique_lock<std::mutex> lock(mutex);
        bool propagated = false;
        while (remaining > 0) {
            done_cv.wait_for(lock, std::chrono::milliseconds(20));
            if (!propagated && parent && !parent->check().ok()) {
                for (const auto &slot : slots)
                    slot->token.cancel();
                propagated = true;
            }
        }
        lock.unlock();
        pool.wait();
    }

    PortfolioReport race;
    race.requested = k;
    race.candidates.reserve(strategies.size());
    int winner = -1;
    for (int i = 0; i < k; ++i) {
        const Slot &slot = *slots[i];
        PortfolioCandidate entry;
        entry.strategy = strategies[i].name;
        entry.seed =
            strategies[i].options.config().partition.seed;
        entry.status = slot.report->ok()
            ? Status::okStatus()
            : slot.report->status();
        entry.wallMillis = slot.wallMillis;
        entry.cancelled =
            entry.status.code() == StatusCode::Cancelled ||
            entry.status.code() == StatusCode::DeadlineExceeded;
        if (entry.cancelled)
            ++race.cancelledEarly;
        if (slot.scored) {
            const CompileReport &report = slot.report->value();
            entry.logSurvival = slot.score;
            entry.successProbability = std::exp(slot.score);
            entry.makespan = report.distributed->schedule.makespan;
            entry.connectors = report.distributed->numConnectors;
            entry.cacheHit = report.cacheHit;
            // Strict improvement only: ties keep the earliest
            // strategy, so the default wins unless beaten.
            if (winner < 0 || slot.score > slots[winner]->score)
                winner = i;
        }
        race.candidates.push_back(std::move(entry));
    }

    if (winner < 0) {
        // Every candidate failed; the base configuration's error is
        // the one the caller can act on.
        return slots[0]->report->status();
    }
    race.winnerIndex = winner;
    race.candidates[winner].winner = true;

    Outcome outcome;
    outcome.report = std::move(slots[winner]->report->value());

    if (config_.validateWinner) {
        const Pattern *pattern = nullptr;
        if (request.entryPoint() ==
            CompileRequest::EntryPoint::Pattern)
            pattern = &request.pattern();
        else if (outcome.report.pattern)
            pattern = &*outcome.report.pattern;
        if (!pattern) {
            race.validationNote =
                "validation skipped: graph-entry program carries "
                "no pattern";
        } else {
            ExecOptions exec;
            exec.backend = "schedule";
            exec.shots = 64;
            exec.seed = static_cast<std::int64_t>(
                base_.config().partition.seed &
                0x7fffffffffffffffull);
            const ExecProgram program =
                ExecProgram::fromPattern(*pattern, request.label())
                    .withSchedule(*outcome.report.distributed);
            auto replay = executeProgram(program, exec);
            if (replay.ok()) {
                race.validated = true;
                race.validationNote =
                    "winner replayed on the schedule backend (" +
                    std::to_string(exec.shots) + " shots)";
            } else if (replay.status().code() ==
                       StatusCode::FailedPrecondition) {
                race.validationNote =
                    "validation skipped: " +
                    replay.status().message();
            } else {
                // The oracle rejected the winning schedule: that is
                // a compiler bug, not a race detail.
                return replay.status();
            }
        }
    }

    race.raceMillis = elapsedMillis(race_start);
    outcome.race = std::move(race);
    return outcome;
}

} // namespace dcmbqc

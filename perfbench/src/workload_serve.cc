/**
 * @file
 * serve_cache: a closed loop against one `dcmbqcd` daemon. Each of
 * `threads` client connections sends its next request only after the
 * previous reply arrived. One round is a fixed, seeded batch of
 * requests drawn from a Zipf-skewed population of 36-qubit Table II
 * jobs that is three times larger than the daemon's memory tier, so
 * the mix hits memory, hits disk, and evicts:
 *
 *   probe    probe-first compileCached of a warm job (80% of reads:
 *            the only request the `dcmbqc` CLI sends)
 *   fetch    by-key fetch of a warm job (hot path, 10%)
 *   resend   full-job compile of a warm job (re-keyed server side, 10%)
 *   miss     a job with a fresh seed: compile + encode + insert (1%)
 *
 * No traffic trace exists, so the Zipf exponent and the miss share
 * are assumptions (see kZipfExponent and kMissesPerRound).
 *
 * Every reply is checked against an in-process, cacheless compile of
 * the same job.
 */

#include <signal.h>
#include <sys/wait.h>
#include <unistd.h>

#include <atomic>
#include <cmath>
#include <filesystem>
#include <iterator>
#include <optional>
#include <random>
#include <thread>

#include "circuit/generators.hh"
#include "photonic/grid.hh"
#include "serialize/codecs.hh"
#include "service/client.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace dcmbqc;

namespace
{

constexpr int kPopulationSeeds = 12;
constexpr int kMemoryTier = 16;
constexpr int kRequestsPerRound = 400;

/**
 * Cold misses per round (1%). A miss costs a full compile, several
 * times a hit, so a larger share would turn the round into a compile
 * measurement, which compile_paper already is; 1% still inserts and
 * evicts every round.
 */
constexpr int kMissesPerRound = 4;

/**
 * Popularity skew over the population: a moderate Zipf, so the hot
 * keys stay in the memory tier while the tail is served from disk.
 */
constexpr double kZipfExponent = 1.1;

enum class Kind { Fetch, Probe, Resend, Miss };
constexpr const char *kKindNames[] = {"fetch", "probe", "resend", "miss"};

/** Read-request weights, in Kind order (fetch, probe, resend). */
constexpr double kReadWeights[] = {10, 80, 10};

/**
 * Run f(worker, i) for i in [0, n) on `threads` workers, each pulling
 * the next index once its previous call returned.
 */
template <typename F>
void
parallelFor(int n, int threads, F &&f)
{
    std::atomic<int> next{0};
    std::vector<std::thread> pool;
    for (int t = 0; t < threads; ++t)
        pool.emplace_back([&, t] {
            for (int i = next++; i < n; i = next++)
                f(t, i);
        });
    for (std::thread &thread : pool)
        thread.join();
}

/**
 * Digest of a report's compiled result: partition, schedule and
 * objective. Cheap enough to take on every reply.
 */
std::uint64_t
resultDigest(const CompileReport &report)
{
    std::uint64_t hash = 1469598103934665603ull;
    const auto mix = [&](std::int64_t value) {
        hash ^= static_cast<std::uint64_t>(value);
        hash *= 1099511628211ull;
    };
    if (!report.distributed)
        return 0;
    const DcMbqcResult &r = *report.distributed;
    mix(r.numConnectors);
    mix(r.metrics.makespan);
    mix(r.metrics.tauLocal);
    mix(r.metrics.tauRemote);
    for (int part : r.partition.assignment())
        mix(part);
    for (TimeSlot slot : r.schedule.mainStart)
        mix(slot);
    for (TimeSlot slot : r.schedule.syncStart)
        mix(slot);
    mix(report.pattern ? report.pattern->numNodes() : -1);
    return hash;
}

/** One job with its in-process reference. */
struct Job
{
    std::string name;
    ServiceJob job;
    std::uint64_t reference = 0;
    std::uint64_t key = 0;
    std::uint64_t verifier = 0;
};

ServiceJob
makeJob(const Circuit &circuit, const std::string &name, int qpus,
        std::uint64_t seed)
{
    ServiceJob job;
    job.request = CompileRequest::fromCircuit(circuit, name);
    job.config = CompileOptions()
                     .numQpus(qpus)
                     .gridSize(gridSizeForQubits(circuit.numQubits()))
                     .seed(seed)
                     .build()
                     .value();
    return job;
}

/** Cacheless in-process compile of a job (the reference). */
std::optional<CompileReport>
compileInProcess(const ServiceJob &job)
{
    auto report = CompilerDriver(CompileOptions::fromConfig(job.config))
                      .compile(*job.request);
    if (!report.ok())
        return std::nullopt;
    return std::move(report.value());
}

/** A `dcmbqcd` child process, drained and reaped on destruction. */
class Daemon
{
  public:
    Daemon(const RunOptions &options, std::string cache_dir)
        : socket_(options.runDir + "/serve.sock"),
          cacheDir_(std::move(cache_dir))
    {
        std::filesystem::remove_all(cacheDir_);
        const std::vector<std::string> args = {
            options.daemonPath, "--socket", socket_, "--workers",
            std::to_string(options.threads), "--queue-depth", "64",
            "--cache-dir", cacheDir_, "--cache-capacity",
            std::to_string(kMemoryTier), "--quiet"};
        std::vector<char *> argv;
        for (const std::string &arg : args)
            argv.push_back(const_cast<char *>(arg.c_str()));
        argv.push_back(nullptr);
        pid_ = ::fork();
        if (pid_ == 0) {
            ::execv(argv[0], argv.data());
            ::_exit(127);
        }
    }

    ~Daemon()
    {
        if (pid_ > 0) {
            ServiceClient client;
            if (client.connect(socket_).ok())
                (void)client.drain();
            else
                ::kill(pid_, SIGTERM);
            int status = 0;
            const auto start = Clock::now();
            while (::waitpid(pid_, &status, WNOHANG) == 0) {
                if (secondsSince(start) > 10.0) {
                    ::kill(pid_, SIGKILL);
                    ::waitpid(pid_, &status, 0);
                    break;
                }
                std::this_thread::sleep_for(std::chrono::milliseconds(2));
            }
        }
        std::filesystem::remove_all(cacheDir_);
    }

    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    /** Connect a client, retrying while the daemon starts up. */
    Status
    connect(ServiceClient &client) const
    {
        const auto start = Clock::now();
        Status status = client.connect(socket_);
        while (!status.ok() && pid_ > 0 && secondsSince(start) < 10.0) {
            std::this_thread::sleep_for(std::chrono::milliseconds(1));
            status = client.connect(socket_);
        }
        return status;
    }

    int pid() const { return pid_; }

  private:
    std::string socket_;
    std::string cacheDir_;
    int pid_ = -1;
};

/** One request of a round. */
struct Request
{
    Kind kind = Kind::Fetch;
    int job = 0;
};

/** Latency sample of one completed request. */
struct Sample
{
    Kind kind;
    double millis;
};

class ServeBench
{
  public:
    ServeBench(const RunOptions &options, Checker &checker)
        : options_(options), checker_(checker)
    {
        // The population is fixed (compile seeds 1..12 on 4 QPUs, the
        // compile_paper instances); the run seed draws the VQE angles,
        // the request stream and the fresh seeds of the misses.
        const std::vector<std::pair<std::string, Circuit>> programs = {
            {"QAOA-36", makeQaoaMaxcut(36)},
            {"VQE-36", makeVqe(36, 1, options.seed * 1000 + 36)},
            {"QFT-36", makeQft(36)},
            {"RCA-36", makeRippleCarryAdder(36)},
        };
        for (int s = 1; s <= kPopulationSeeds; ++s)
            for (const auto &[family, circuit] : programs) {
                const std::string name = family + "/s" + std::to_string(s);
                population_.push_back(
                    Job{name, makeJob(circuit, name, 4, s)});
            }
        missPrograms_ = {programs[0].second, programs[2].second,
                         programs[3].second};

        // Zipf popularity by population order, so every family is
        // equally represented among the hot keys.
        std::vector<double> weights;
        for (std::size_t k = 1; k <= population_.size(); ++k)
            weights.push_back(
                1.0 / std::pow(static_cast<double>(k), kZipfExponent));
        popularity_ = std::discrete_distribution<int>(weights.begin(),
                                                      weights.end());
    }

    /** Compile the population in-process: references and figures. */
    void
    compileReferences(MetricSink &sink)
    {
        std::vector<std::optional<CompileReport>> reports(
            population_.size());
        parallelFor(static_cast<int>(population_.size()), options_.threads,
                    [&](int, int i) {
                        reports[i] = compileInProcess(population_[i].job);
                    });
        double bytes = 0, makespan = 0, lifetime = 0;
        double encode_ms = 0, decode_ms = 0;
        for (std::size_t i = 0; i < reports.size(); ++i) {
            if (!checker_.check(reports[i].has_value(),
                                population_[i].name + ": reference compile"))
                continue;
            const CompileReport &report = *reports[i];
            population_[i].reference = resultDigest(report);
            auto start = Clock::now();
            const auto artifact = encodeCompileReportArtifact(report);
            encode_ms += millisSince(start);
            start = Clock::now();
            checker_.check(decodeCompileReportArtifact(artifact).ok(),
                           population_[i].name + ": artifact decode");
            decode_ms += millisSince(start);
            bytes += static_cast<double>(artifact.size());
            makespan += report.result().executionTime();
            lifetime += report.result().requiredLifetime();
        }
        const std::size_t n = population_.size();
        sink.set("artifact_kib", bytes / 1024.0, "KiB", n);
        sink.set("makespan_cycles", makespan, "cycles", n);
        sink.set("photon_lifetime_cycles", lifetime, "cycles", n);
        if (options_.trace) {
            sink.set("serialize.encode_ms", encode_ms, "ms", n);
            sink.set("serialize.decode_ms", decode_ms, "ms", n);
            sink.set("serialize.encode_mb_per_s",
                     bytes / 1e3 / std::max(encode_ms, 1e-9), "MB/s", n);
            sink.set("serialize.decode_mb_per_s",
                     bytes / 1e3 / std::max(decode_ms, 1e-9), "MB/s", n);
        }
    }

    /** Start a fresh daemon and warm every population job through it. */
    void
    setUp()
    {
        daemon_ = std::make_unique<Daemon>(options_,
                                           options_.runDir + "/cache");
        for (int t = 0; t < options_.threads; ++t) {
            clients_.push_back(std::make_unique<ServiceClient>());
            const Status status = daemon_->connect(*clients_.back());
            checker_.check(status.ok(), "connect: " + status.toString());
        }
        warmDigests_.assign(population_.size(), 0);
        parallelFor(static_cast<int>(population_.size()),
                    static_cast<int>(clients_.size()), [&](int c, int i) {
                        auto reply = clients_[c]->compile(population_[i].job);
                        if (!reply.ok()) {
                            population_[i].key = 0;
                            return;
                        }
                        population_[i].key = reply->report.cacheKey;
                        population_[i].verifier = reply->report.cacheVerifier;
                        warmDigests_[i] = resultDigest(reply->report);
                    });
    }

    void
    checkWarmReplies()
    {
        for (std::size_t i = 0; i < population_.size(); ++i)
            checker_.check(population_[i].key != 0 &&
                               warmDigests_[i] == population_[i].reference,
                           population_[i].name + ": warm-up reply differs "
                                                 "from in-process compile");
    }

    /** One round of the closed loop; returns its wall seconds. */
    std::vector<double>
    round(int index, bool traced)
    {
        const std::vector<Request> requests = drawRound(index);
        std::vector<std::vector<Sample>> samples(clients_.size());
        std::vector<std::vector<std::pair<int, std::uint64_t>>> misses(
            clients_.size());
        std::vector<std::vector<std::string>> errors(clients_.size());
        Tracer *tracer = traced ? &tracer_ : nullptr;
        const auto start = Clock::now();
        parallelFor(static_cast<int>(requests.size()),
                    static_cast<int>(clients_.size()), [&](int c, int i) {
                        serveOne(*clients_[c], requests[i], tracer, samples[c],
                                 misses[c], errors[c]);
                    });
        const double seconds = secondsSince(start);
        for (std::size_t c = 0; c < clients_.size(); ++c) {
            for (const Sample &s : samples[c]) {
                latency_[static_cast<int>(s.kind)].push_back(s.millis);
                (traced ? tracedMs_ : untracedMs_).push_back(s.millis);
            }
            for (const auto &miss : misses[c])
                missReplies_.push_back(miss);
            for (const std::string &error : errors[c])
                checker_.fail(error);
            checker_.passed(samples[c].size() - errors[c].size());
        }
        return {seconds};
    }

    /** Verify every miss reply against an in-process compile. */
    void
    checkMisses()
    {
        std::vector<std::uint64_t> reference(missReplies_.size(), 0);
        parallelFor(static_cast<int>(missReplies_.size()), options_.threads,
                    [&](int, int i) {
                        const auto report =
                            compileInProcess(missJob(missReplies_[i].first));
                        if (report)
                            reference[i] = resultDigest(*report);
                    });
        for (std::size_t i = 0; i < missReplies_.size(); ++i)
            checker_.check(reference[i] != 0 &&
                               reference[i] == missReplies_[i].second,
                           "miss " + std::to_string(missReplies_[i].first) +
                               ": reply differs from in-process compile");
    }

    ServiceStats
    stats()
    {
        auto stats = clients_.front()->stats();
        checker_.check(stats.ok(), "stats RPC");
        return stats.ok() ? *stats : ServiceStats{};
    }

    void
    report(MetricSink &sink, const RoundTimes &times,
           const ServiceStats &before, const ServiceStats &after)
    {
        reportRounds(options_, sink, times);
        std::vector<double> all;
        for (const auto &kind : latency_)
            all.insert(all.end(), kind.begin(), kind.end());
        const double rounds = static_cast<double>(
            times.untraced.size() + times.traced.size());
        sink.info("request_ms_p50", quantile(all, 0.5), "ms", all.size());
        sink.info("request_ms_p99", quantile(all, 0.99), "ms", all.size());
        sink.info("requests_per_s",
                  kRequestsPerRound / sumOfMedians(times.untraced), "1/s",
                  times.untraced.size());
        if (!options_.trace)
            return;

        for (int k = 0; k < 4; ++k)
            sink.set(std::string("service.") + kKindNames[k] + "_ms_p50",
                     quantile(latency_[k], 0.5), "ms", latency_[k].size());
        sink.set("service.server_ms_p50", after.p50Millis, "ms",
                 after.latencySamples);
        sink.set("service.server_ms_p99", after.p99Millis, "ms",
                 after.latencySamples);
        sink.set("service.transport_ms_p50",
                 quantile(all, 0.5) - after.p50Millis, "ms", all.size());
        sink.set("service.hot_replies",
                 (double)(after.hotReplies - before.hotReplies), "count");
        sink.set("service.rejected",
                 (double)(after.rejectedQueueFull - before.rejectedQueueFull),
                 "count");
        const double hits = (double)(after.cache.hits - before.cache.hits);
        const double lookups =
            hits + (double)(after.cache.misses - before.cache.misses);
        sink.set("cache.hits", hits, "count");
        sink.set("cache.misses", lookups - hits, "count");
        sink.set("cache.evictions",
                 (double)(after.cache.evictions - before.cache.evictions),
                 "count");
        sink.set("cache.disk_hits",
                 (double)(after.cache.diskHits - before.cache.diskHits),
                 "count");
        sink.set("cache.hit_ratio", lookups > 0 ? hits / lookups : 0.0,
                 "ratio");
        for (const auto &stage : after.stages) {
            double total = stage.totalMillis;
            for (const auto &old : before.stages)
                if (old.pass == stage.pass)
                    total -= old.totalMillis;
            sink.set("pass." + stage.pass + ".ms", total / rounds, "ms");
        }
        sink.set("trace.request_ms_p50_untraced",
                 quantile(untracedMs_, 0.5), "ms", untracedMs_.size());
        sink.set("trace.request_ms_p50_traced", quantile(tracedMs_, 0.5),
                 "ms", tracedMs_.size());
        tracer_.writeChrome(options_.runDir + "/trace-serve_cache.json");
    }

    int daemonPid() const { return daemon_->pid(); }

    void
    shutDown()
    {
        clients_.clear();
        daemon_.reset();
    }

  private:
    ServiceJob
    missJob(int index) const
    {
        const Circuit &circuit =
            missPrograms_[static_cast<std::size_t>(index) %
                          missPrograms_.size()];
        return makeJob(circuit, "miss-" + std::to_string(index), 4,
                       1000000 + options_.seed * 10000 +
                           static_cast<std::uint64_t>(index));
    }

    std::vector<Request>
    drawRound(int index)
    {
        std::mt19937_64 rng(options_.seed * 7919 +
                            static_cast<std::uint64_t>(index));
        std::discrete_distribution<int> kinds(std::begin(kReadWeights),
                                              std::end(kReadWeights));
        std::vector<Request> requests;
        for (int i = 0; i < kRequestsPerRound - kMissesPerRound; ++i)
            requests.push_back(
                Request{static_cast<Kind>(kinds(rng)), popularity_(rng)});
        for (int m = 0; m < kMissesPerRound; ++m) {
            const std::size_t at = rng() % (requests.size() + 1);
            requests.insert(requests.begin() + at,
                            Request{Kind::Miss, nextMiss_++});
        }
        return requests;
    }

    void
    serveOne(ServiceClient &client, const Request &request, Tracer *tracer,
             std::vector<Sample> &samples,
             std::vector<std::pair<int, std::uint64_t>> &misses,
             std::vector<std::string> &errors)
    {
        const Job *job = request.kind == Kind::Miss
            ? nullptr
            : &population_[static_cast<std::size_t>(request.job)];
        std::optional<ServiceJob> fresh;
        if (!job)
            fresh = missJob(request.job);
        const auto start = Clock::now();
        Expected<ClientCompileResult> reply = [&] {
            ScopedSpan span(tracer, std::string("service.") +
                                        kKindNames[(int)request.kind]);
            switch (request.kind) {
              case Kind::Fetch: return client.fetch(job->key, job->verifier);
              case Kind::Probe: return client.compileCached(job->job);
              case Kind::Resend: return client.compile(job->job);
              case Kind::Miss: break;
            }
            return client.compile(*fresh);
        }();
        samples.push_back(Sample{request.kind, millisSince(start)});
        const std::string what = std::string(kKindNames[(int)request.kind]) +
            " " + std::to_string(request.job);
        if (!reply.ok()) {
            errors.push_back(what + ": " + reply.status().toString());
            return;
        }
        const std::uint64_t digest = resultDigest(reply->report);
        if (!job)
            misses.emplace_back(request.job, digest);
        else if (digest != job->reference)
            errors.push_back(what + ": reply differs from in-process "
                                    "compile");
    }

    const RunOptions &options_;
    Checker &checker_;
    Tracer tracer_;
    std::vector<Job> population_;
    std::vector<Circuit> missPrograms_;
    std::discrete_distribution<int> popularity_;
    std::unique_ptr<Daemon> daemon_;
    std::vector<std::unique_ptr<ServiceClient>> clients_;
    std::vector<std::uint64_t> warmDigests_;
    int nextMiss_ = 0;
    std::vector<double> latency_[4];
    std::vector<double> tracedMs_;
    std::vector<double> untracedMs_;
    std::vector<std::pair<int, std::uint64_t>> missReplies_;
};

} // namespace

void
runServeCache(const RunOptions &options, Checker &checker, MetricSink &sink)
{
    // Each set-up builds the inputs, starts a fresh daemon and warms
    // it; tearing the previous one down is not part of set-up time.
    std::optional<ServeBench> bench;
    std::vector<double> setups;
    for (int i = 0; i < 5; ++i) {
        if (bench)
            bench->shutDown();
        const auto start = Clock::now();
        bench.emplace(options, checker);
        bench->setUp();
        setups.push_back(secondsSince(start));
    }
    sink.set("setup_s", median(setups), "s", setups.size());
    bench->compileReferences(sink);
    bench->checkWarmReplies();
    const ServiceStats before = bench->stats();
    const RoundTimes times = runRounds(
        options, 5,
        [&](int index, bool traced) { return bench->round(index, traced); },
        {0, bench->daemonPid()});
    const ServiceStats after = bench->stats();
    bench->checkMisses();
    bench->report(sink, times, before, after);
    bench->shutDown();
}

} // namespace perfbench

#include "service/server.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include <cerrno>
#include <condition_variable>
#include <cstring>

#include "api/driver.hh"
#include "api/options.hh"
#include "cache/cache_key.hh"
#include "noise/model.hh"
#include "serialize/codecs.hh"

namespace dcmbqc
{

namespace
{

/**
 * Streams one Progress frame per pass boundary to the requesting
 * client. The session thread is parked waiting for the job while the
 * worker runs, so the worker owns the socket exclusively and these
 * writes cannot interleave with the final reply. Write failures are
 * ignored: progress is advisory, the CompileReply is the contract.
 */
class ProgressStreamObserver : public PassObserver
{
  public:
    explicit ProgressStreamObserver(int fd) : fd_(fd) {}

    void
    onPassBegin(const std::string &label, const Pass &pass) override
    {
        ProgressEvent event;
        event.label = label;
        event.pass = pass.name();
        event.finished = false;
        (void)writeFrame(fd_, FrameType::Progress,
                         encodeProgressEvent(event));
    }

    void
    onPassEnd(const std::string &label, const Pass &pass,
              const StageReport &report) override
    {
        ProgressEvent event;
        event.label = label;
        event.pass = pass.name();
        event.finished = true;
        event.millis = report.millis;
        event.note = report.note;
        (void)writeFrame(fd_, FrameType::Progress,
                         encodeProgressEvent(event));
    }

    void
    onWindow(const std::string &label, const Pass &pass,
             const WindowEvent &window) override
    {
        ProgressEvent event;
        event.label = label;
        event.pass = pass.name();
        event.window = true;
        event.windowIndex = window.index;
        event.windowSettled = window.settled;
        event.windowTotal = window.total;
        event.frontierLive = window.frontierLive;
        (void)writeFrame(fd_, FrameType::Progress,
                         encodeProgressEvent(event));
    }

  private:
    int fd_;
};

/** Completion slot the session thread parks on. */
struct JobState
{
    std::mutex mutex;
    std::condition_variable done;
    bool finished = false;
    Expected<CompileReport> result{Status::internal("job not run")};
};

Status
probeExistingDaemon(const sockaddr_un &addr)
{
    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return Status::unavailable("socket() failed");
    const int rc = ::connect(
        fd, reinterpret_cast<const sockaddr *>(&addr), sizeof(addr));
    ::close(fd);
    if (rc == 0)
        return Status::unavailable(
            "a daemon is already serving this socket");
    return Status::okStatus();
}

} // namespace

ServiceServer::ServiceServer(ServiceConfig config)
    : config_(std::move(config))
{
}

ServiceServer::~ServiceServer()
{
    stop();
}

Status
ServiceServer::start()
{
    if (started_)
        return Status::failedPrecondition(
            "ServiceServer::start() called twice");
    if (config_.socketPath.empty())
        return Status::invalidArgument("empty daemon socket path");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (config_.socketPath.size() >= sizeof(addr.sun_path))
        return Status::invalidArgument(
            "daemon socket path too long (" +
            std::to_string(config_.socketPath.size()) + " > " +
            std::to_string(sizeof(addr.sun_path) - 1) + " bytes): " +
            config_.socketPath);
    std::strncpy(addr.sun_path, config_.socketPath.c_str(),
                 sizeof(addr.sun_path) - 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (listenFd_ < 0)
        return Status::unavailable(
            std::string("socket() failed: ") + std::strerror(errno));

    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) != 0) {
        if (errno != EADDRINUSE) {
            const Status status = Status::unavailable(
                "cannot bind " + config_.socketPath + ": " +
                std::strerror(errno));
            ::close(listenFd_);
            listenFd_ = -1;
            return status;
        }
        // Distinguish a live daemon from a stale socket file left by
        // a crash: only the latter may be replaced.
        Status probe = probeExistingDaemon(addr);
        if (!probe.ok()) {
            ::close(listenFd_);
            listenFd_ = -1;
            return probe;
        }
        ::unlink(config_.socketPath.c_str());
        if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
                   sizeof(addr)) != 0) {
            const Status status = Status::unavailable(
                "cannot bind " + config_.socketPath + ": " +
                std::strerror(errno));
            ::close(listenFd_);
            listenFd_ = -1;
            return status;
        }
    }

    if (::listen(listenFd_, 64) != 0) {
        const Status status = Status::unavailable(
            std::string("listen() failed: ") + std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(config_.socketPath.c_str());
        return status;
    }

    int pipe_fds[2];
    if (::pipe(pipe_fds) != 0) {
        const Status status = Status::unavailable(
            std::string("pipe() failed: ") + std::strerror(errno));
        ::close(listenFd_);
        listenFd_ = -1;
        ::unlink(config_.socketPath.c_str());
        return status;
    }
    wakeRead_ = pipe_fds[0];
    wakeWrite_ = pipe_fds[1];

    CacheConfig cache_config;
    cache_config.capacity = config_.cacheCapacity;
    cache_config.diskDir = config_.cacheDir;
    cache_ = std::make_shared<CompileCache>(cache_config);

    const int workers = config_.workers > 0
        ? config_.workers
        : ThreadPool::defaultNumThreads();
    pool_ = std::make_unique<ThreadPool>(workers);
    gate_ = std::make_unique<AdmissionGate>(config_.queueDepth);

    startTime_ = std::chrono::steady_clock::now();
    started_ = true;
    acceptThread_ = std::thread([this] { acceptLoop(); });
    return Status::okStatus();
}

void
ServiceServer::requestDrain()
{
    draining_.store(true);
    if (wakeWrite_ >= 0) {
        const char byte = 'q';
        // Async-signal-safe wake-up; a full pipe already guarantees
        // the accept loop will wake.
        (void)!::write(wakeWrite_, &byte, 1);
    }
}

void
ServiceServer::wait()
{
    if (!started_)
        return;
    if (acceptThread_.joinable())
        acceptThread_.join();
    // Sessions observe `draining_` within their poll interval,
    // finish the request they are serving, and exit.
    std::vector<std::thread> sessions;
    {
        std::lock_guard<std::mutex> lock(sessionMutex_);
        sessions.swap(sessions_);
    }
    for (std::thread &session : sessions)
        if (session.joinable())
            session.join();
    gate_->waitIdle();
    pool_.reset();
    if (wakeRead_ >= 0) {
        ::close(wakeRead_);
        wakeRead_ = -1;
    }
    if (wakeWrite_ >= 0) {
        ::close(wakeWrite_);
        wakeWrite_ = -1;
    }
    started_ = false;
}

void
ServiceServer::stop()
{
    if (!started_)
        return;
    requestDrain();
    wait();
}

void
ServiceServer::acceptLoop()
{
    while (!draining_.load()) {
        pollfd fds[2];
        fds[0].fd = listenFd_;
        fds[0].events = POLLIN;
        fds[0].revents = 0;
        fds[1].fd = wakeRead_;
        fds[1].events = POLLIN;
        fds[1].revents = 0;
        const int ready = ::poll(fds, 2, -1);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (fds[1].revents != 0 || draining_.load())
            break;
        if ((fds[0].revents & POLLIN) == 0)
            continue;
        const int fd = ::accept(listenFd_, nullptr, nullptr);
        if (fd < 0)
            continue;
        std::lock_guard<std::mutex> lock(sessionMutex_);
        sessions_.emplace_back([this, fd] { serveSession(fd); });
    }
    ::close(listenFd_);
    listenFd_ = -1;
    ::unlink(config_.socketPath.c_str());
}

void
ServiceServer::serveSession(int fd)
{
    while (!draining_.load()) {
        // Bounded poll so an idle session notices a drain within
        // ~100 ms instead of blocking in recv forever.
        pollfd pfd;
        pfd.fd = fd;
        pfd.events = POLLIN;
        pfd.revents = 0;
        const int ready = ::poll(&pfd, 1, 100);
        if (ready < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (ready == 0)
            continue;

        auto frame = readFrame(fd);
        if (!frame.ok()) {
            // A malformed stream cannot be resynchronized: report
            // the reason best-effort and hang up. A clean peer close
            // (Unavailable) just ends the session.
            if (frame.status().code() != StatusCode::Unavailable) {
                CompileReply reply;
                reply.status = frame.status();
                (void)writeFrame(fd, FrameType::CompileReply,
                                 encodeCompileReply(reply));
            }
            break;
        }

        if (frame->type == FrameType::Ping) {
            metrics_.recordPing();
            if (!writeFrame(fd, FrameType::Pong, {}).ok())
                break;
        } else if (frame->type == FrameType::StatsRequest) {
            metrics_.recordStatsRequest();
            if (!writeFrame(fd, FrameType::StatsReply,
                            encodeServiceStats(statsSnapshot()))
                     .ok())
                break;
        } else if (frame->type == FrameType::Drain) {
            // Flip the drain state before acknowledging, so a client
            // holding the DrainReply never observes a non-draining
            // server.
            requestDrain();
            (void)writeFrame(fd, FrameType::DrainReply, {});
            break;
        } else if (frame->type == FrameType::CompileRequest) {
            handleCompile(fd, frame->payload);
        } else if (frame->type == FrameType::CacheProbe) {
            handleProbe(fd, frame->payload);
        } else {
            CompileReply reply;
            reply.status = Status::invalidArgument(
                std::string("unexpected client frame type: ") +
                frameTypeName(frame->type));
            (void)writeFrame(fd, FrameType::CompileReply,
                             encodeCompileReply(reply));
            break;
        }
    }
    ::close(fd);
}

double
ServiceServer::millisSince(
    std::chrono::steady_clock::time_point start) const
{
    return std::chrono::duration<double, std::milli>(
               std::chrono::steady_clock::now() - start)
        .count();
}

void
ServiceServer::recordVerifier(std::uint64_t key,
                              std::uint64_t verifier)
{
    if (key == 0)
        return;
    std::lock_guard<std::mutex> lock(verifierMutex_);
    verifiers_[key] = verifier;
}

bool
ServiceServer::knownVerifier(std::uint64_t key,
                             std::uint64_t *verifier) const
{
    std::lock_guard<std::mutex> lock(verifierMutex_);
    auto it = verifiers_.find(key);
    if (it == verifiers_.end())
        return false;
    *verifier = it->second;
    return true;
}

bool
ServiceServer::serveHot(
    int fd, std::uint64_t key, std::uint64_t verifier,
    std::chrono::steady_clock::time_point received,
    bool count_request)
{
    // Serve raw bytes only for a key whose artifact verifier this
    // server has already validated; everything else goes through the
    // worker path, which decodes and checks.
    std::uint64_t checked = 0;
    if (!knownVerifier(key, &checked) || checked != verifier)
        return false;
    // The reply borrows the cached artifact; holding it here keeps it
    // alive until the reply is sent, even if the cache evicts it.
    const CachedArtifact bytes = cache_->lookup(key);
    if (!bytes)
        return false;
    // One pass over the cached artifact checks its envelope and
    // computes the frame checksum; it ends before any byte is sent.
    auto frame = frameHotReply(key, *bytes);
    if (!frame.ok()) {
        cache_->discard(key);
        return false;
    }

    // Every metric of this reply is recorded before the bytes hit
    // the socket, so a client holding the reply sees it in stats.
    if (count_request)
        metrics_.recordCompileRequest(/*execute=*/false);
    metrics_.recordOutcome(Status::okStatus(), /*cache_hit=*/true,
                           /*hot_served=*/true);
    metrics_.recordLatency(millisSince(received));
    (void)writeHotReply(fd, *frame);
    return true;
}

bool
ServiceServer::tryHotReply(
    int fd, const ServiceJob &job,
    std::chrono::steady_clock::time_point received)
{
    // Hot serving only applies to compile-only, K=1 jobs: executions
    // run with the caller's seed and are never cached, and a
    // portfolio job must actually race (the hot key addresses only
    // the default strategy's artifact).
    if (!job.backends.empty() || !job.request || job.portfolio > 1)
        return false;
    if (!job.request->validate().ok())
        return false;

    CompileOptions options = CompileOptions::fromConfig(job.config);
    auto normalized = options.build();
    if (!normalized.ok())
        return false;
    // Same gate as the driver: only a compile-affecting noise config
    // enters the key, so noise-free and vacuous jobs stay hot-
    // servable under their pre-noise addresses.
    const NoiseConfig *key_noise =
        job.noise && noiseAffectsCompile(*job.noise) ? &*job.noise
                                                     : nullptr;
    const CacheKeyPair key = computeCacheKey(
        *job.request, *normalized, job.baseline, key_noise);
    return serveHot(fd, key.key, key.verifier, received,
                    /*count_request=*/false);
}

void
ServiceServer::handleProbe(int fd,
                           const std::vector<std::uint8_t> &payload)
{
    const auto received = std::chrono::steady_clock::now();
    auto probe = decodeCacheProbe(payload);
    if (!probe.ok()) {
        CompileReply reply;
        reply.status = probe.status();
        metrics_.recordCompileRequest(/*execute=*/false);
        metrics_.recordOutcome(reply.status, false, false);
        (void)writeFrame(fd, FrameType::CompileReply,
                         encodeCompileReply(reply));
        return;
    }
    // A served probe is one compile request (counted inside the
    // hot-serve step, before the reply); a missed probe is not
    // counted — the client follows up with the full job, which is.
    if (serveHot(fd, probe->key, probe->verifier, received,
                 /*count_request=*/true))
        return;
    (void)writeFrame(fd, FrameType::CacheProbeMiss, {});
}

void
ServiceServer::handleCompile(int fd,
                             const std::vector<std::uint8_t> &payload)
{
    const auto received = std::chrono::steady_clock::now();
    const auto replyWith = [&](const CompileReply &reply) {
        (void)writeFrame(fd, FrameType::CompileReply,
                         encodeCompileReply(reply));
    };

    auto decoded = decodeServiceJob(payload);
    if (!decoded.ok()) {
        metrics_.recordCompileRequest(/*execute=*/false);
        metrics_.recordOutcome(decoded.status(), false, false);
        CompileReply reply;
        reply.status = decoded.status();
        replyWith(reply);
        return;
    }
    ServiceJob job = std::move(decoded.value());
    metrics_.recordCompileRequest(!job.backends.empty());

    if (job.baseline && !job.backends.empty()) {
        CompileReply reply;
        reply.status = Status::invalidArgument(
            "baseline jobs are compile-only (the baseline pipeline "
            "produces no distributed schedule to execute)");
        metrics_.recordOutcome(reply.status, false, false);
        replyWith(reply);
        return;
    }

    if (job.baseline && job.portfolio > 1) {
        CompileReply reply;
        reply.status = Status::invalidArgument(
            "baseline jobs cannot race a portfolio (candidates are "
            "scored on the distributed schedule, which the baseline "
            "pipeline does not produce)");
        metrics_.recordOutcome(reply.status, false, false);
        replyWith(reply);
        return;
    }

    if (tryHotReply(fd, job, received))
        return;

    const Status admitted = gate_->tryAcquire();
    if (!admitted.ok()) {
        metrics_.recordOutcome(admitted, false, false);
        metrics_.recordLatency(millisSince(received));
        CompileReply reply;
        reply.status = admitted;
        replyWith(reply);
        return;
    }

    // The deadline clock starts at receipt, so queue wait counts
    // against it — a request that waited out its budget is cancelled
    // at the first pass boundary instead of compiling for nobody.
    CancellationToken token;
    const std::uint32_t deadline = job.deadlineMillis > 0
        ? job.deadlineMillis
        : config_.defaultDeadlineMillis;
    if (deadline > 0)
        token.setDeadlineAfterMillis(
            static_cast<std::int64_t>(deadline));

    auto state = std::make_shared<JobState>();
    pool_->submit([this, fd, &job, &token, state] {
        CompileOptions options =
            CompileOptions::fromConfig(job.config);
        options.cache(cache_);
        if (job.portfolio > 1)
            options.portfolio(static_cast<int>(job.portfolio));
        if (job.window > 0)
            options.window(static_cast<int>(job.window));
        std::vector<ExecOptions> backends = job.backends;
        if (job.noise) {
            options.noise(*job.noise);
            // Job-level noise is the default channel of every
            // backend; a backend carrying its own config keeps it.
            for (ExecOptions &backend : backends)
                if (!backend.noise)
                    backend.noise = *job.noise;
        }
        CompilerDriver driver(options);
        ProgressStreamObserver progress(fd);
        if (job.streamProgress)
            driver.addObserver(&progress);
        CompileRequest request = *job.request;
        request.withCancellation(&token);
        Expected<CompileReport> result = backends.empty()
            ? (job.baseline ? driver.compileBaseline(request)
                            : driver.compile(request))
            : driver.compileAndExecute(request, backends);
        std::lock_guard<std::mutex> lock(state->mutex);
        state->result = std::move(result);
        state->finished = true;
        state->done.notify_all();
    });

    {
        std::unique_lock<std::mutex> lock(state->mutex);
        state->done.wait(lock, [&] { return state->finished; });
    }
    gate_->release();

    CompileReply reply;
    if (state->result.ok()) {
        const CompileReport &report = *state->result;
        reply.status = Status::okStatus();
        reply.cacheHit = report.cacheHit;
        reply.cacheKey = report.cacheKey;
        reply.reportArtifact = encodeCompileReportArtifact(report);
        // The worker path has now validated (or produced) this
        // key's artifact; subsequent compile-only requests for the
        // same content take the hot path.
        recordVerifier(report.cacheKey, report.cacheVerifier);
        if (!report.cacheHit)
            metrics_.recordStages(report.stages);
        if (report.portfolio)
            metrics_.recordRace(*report.portfolio);
    } else {
        reply.status = state->result.status();
    }
    metrics_.recordOutcome(reply.status, reply.cacheHit, false);
    metrics_.recordLatency(millisSince(received));
    replyWith(reply);
}

ServiceStats
ServiceServer::statsSnapshot() const
{
    ServiceStats stats = metrics_.snapshot();
    stats.inFlight = gate_ ? gate_->inFlight() : 0;
    stats.queueLimit = gate_ ? gate_->limit() : 0;
    stats.workers = pool_ ? pool_->numThreads() : 0;
    stats.draining = draining_.load();
    stats.uptimeMillis = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::milliseconds>(
            std::chrono::steady_clock::now() - startTime_)
            .count());
    if (cache_) {
        stats.cache = cache_->stats();
        stats.cacheEntries = cache_->size();
    }
    return stats;
}

} // namespace dcmbqc

#include "service/client.hh"

#include <fcntl.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <sys/wait.h>
#include <unistd.h>

#include <cerrno>
#include <chrono>
#include <cstring>
#include <thread>

#include "api/options.hh"
#include "cache/cache_key.hh"
#include "noise/model.hh"
#include "serialize/codecs.hh"

namespace dcmbqc
{

namespace
{

Status
connectSocket(const std::string &socket_path, int *out_fd)
{
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (socket_path.empty())
        return Status::invalidArgument("empty daemon socket path");
    if (socket_path.size() >= sizeof(addr.sun_path))
        return Status::invalidArgument(
            "daemon socket path too long: " + socket_path);
    std::strncpy(addr.sun_path, socket_path.c_str(),
                 sizeof(addr.sun_path) - 1);

    const int fd = ::socket(AF_UNIX, SOCK_STREAM | SOCK_CLOEXEC, 0);
    if (fd < 0)
        return Status::unavailable(
            std::string("socket() failed: ") + std::strerror(errno));
    if (::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                  sizeof(addr)) != 0) {
        const Status status = Status::unavailable(
            "no daemon serving " + socket_path + ": " +
            std::strerror(errno));
        ::close(fd);
        return status;
    }
    *out_fd = fd;
    return Status::okStatus();
}

/**
 * Spawn a detached daemon process: double fork so the daemon is
 * re-parented to init (no zombie for the CLI to reap, no tie to the
 * CLI's session or terminal).
 */
Status
spawnDetached(const std::vector<std::string> &argv)
{
    if (argv.empty())
        return Status::invalidArgument("empty daemon command line");

    std::vector<char *> cargv;
    cargv.reserve(argv.size() + 1);
    for (const std::string &arg : argv)
        cargv.push_back(const_cast<char *>(arg.c_str()));
    cargv.push_back(nullptr);

    const pid_t first = ::fork();
    if (first < 0)
        return Status::unavailable(
            std::string("fork() failed: ") + std::strerror(errno));
    if (first == 0) {
        // Intermediate child: new session, second fork, exit.
        ::setsid();
        const pid_t second = ::fork();
        if (second != 0)
            ::_exit(second < 0 ? 127 : 0);
        const int devnull = ::open("/dev/null", O_RDWR);
        if (devnull >= 0) {
            ::dup2(devnull, STDIN_FILENO);
            ::dup2(devnull, STDOUT_FILENO);
            ::dup2(devnull, STDERR_FILENO);
            if (devnull > STDERR_FILENO)
                ::close(devnull);
        }
        ::execvp(cargv[0], cargv.data());
        ::_exit(127);
    }

    int wait_status = 0;
    (void)::waitpid(first, &wait_status, 0);
    if (!WIFEXITED(wait_status) || WEXITSTATUS(wait_status) != 0)
        return Status::unavailable("failed to spawn the daemon: " +
                                   argv[0]);
    return Status::okStatus();
}

} // namespace

Expected<ClientCompileResult>
decodeReplyFrame(const Frame &frame)
{
    auto reply = decodeCompileReply(frame);
    if (!reply.ok())
        return reply.status();
    if (!reply->status.ok())
        return reply->status;
    auto report = decodeCompileReportArtifact(reply->artifact);
    if (!report.ok())
        return report.status();

    ClientCompileResult result;
    result.report = std::move(report.value());
    result.cacheHit = reply->cacheHit;
    result.hotServed = reply->hotServed;
    result.cacheKey = reply->cacheKey;
    // Hot-served artifacts are shipped verbatim from the cache,
    // which stores them as written by the original (miss)
    // compilation; surface the reply envelope's view, exactly like
    // an in-process replay does.
    result.report.cacheHit = reply->cacheHit;
    result.report.cacheKey = reply->cacheKey;
    return result;
}

ServiceClient::~ServiceClient()
{
    close();
}

void
ServiceClient::close()
{
    if (fd_ >= 0) {
        ::close(fd_);
        fd_ = -1;
    }
}

Status
ServiceClient::connect(const std::string &socket_path)
{
    close();
    return connectSocket(socket_path, &fd_);
}

Status
ServiceClient::connectOrStart(
    const std::string &socket_path,
    const std::vector<std::string> &daemon_argv, int timeout_millis)
{
    Status status = connect(socket_path);
    if (status.ok())
        return status;

    status = spawnDetached(daemon_argv);
    if (!status.ok())
        return status;

    // The daemon binds its socket during startup; poll until it is
    // accepting or the budget runs out.
    const auto give_up = std::chrono::steady_clock::now() +
        std::chrono::milliseconds(timeout_millis);
    for (;;) {
        status = connect(socket_path);
        if (status.ok())
            return status;
        if (std::chrono::steady_clock::now() >= give_up)
            return Status::unavailable(
                "daemon did not start serving " + socket_path +
                " within " + std::to_string(timeout_millis) + " ms");
        std::this_thread::sleep_for(std::chrono::milliseconds(50));
    }
}

Expected<ClientCompileResult>
ServiceClient::parseCompileReply(const Frame &frame, const ServiceJob &job)
{
    auto result = decodeReplyFrame(frame);
    if (result.ok())
        result->report.label = job.request->label();
    return result;
}

Expected<ClientCompileResult>
ServiceClient::awaitCompileReply(
    const ServiceJob &job,
    const std::function<void(const ProgressEvent &)> &on_progress)
{
    for (;;) {
        auto frame = readFrame(fd_);
        if (!frame.ok())
            return frame.status();
        if (frame->type == FrameType::Progress) {
            auto event = decodeProgressEvent(frame->payload);
            if (event.ok() && on_progress)
                on_progress(*event);
            continue;
        }
        if (frame->type != FrameType::CompileReply)
            return Status::invalidArgument(
                std::string("unexpected daemon frame type: ") +
                frameTypeName(frame->type));
        return parseCompileReply(*frame, job);
    }
}

Expected<ClientCompileResult>
ServiceClient::compile(
    const ServiceJob &job,
    const std::function<void(const ProgressEvent &)> &on_progress)
{
    if (!connected())
        return Status::failedPrecondition(
            "ServiceClient::compile() before connect()");
    if (!job.request)
        return Status::invalidArgument("service job has no request");

    Status status = writeFrame(fd_, FrameType::CompileRequest,
                               encodeServiceJob(job));
    if (!status.ok())
        return status;
    return awaitCompileReply(job, on_progress);
}

Expected<ClientCompileResult>
ServiceClient::compileCached(
    const ServiceJob &job,
    const std::function<void(const ProgressEvent &)> &on_progress)
{
    if (!connected())
        return Status::failedPrecondition(
            "ServiceClient::compileCached() before connect()");
    if (!job.request)
        return Status::invalidArgument("service job has no request");
    // Only compile-only jobs can be hot-served; executions always
    // run server-side.
    if (!job.backends.empty())
        return compile(job, on_progress);

    // Content-address the job with the same library the daemon
    // links. A config the client cannot normalize is sent as a full
    // job so the daemon reports the authoritative error.
    CompileOptions options = CompileOptions::fromConfig(job.config);
    auto normalized = options.build();
    if (!normalized.ok())
        return compile(job, on_progress);
    const NoiseConfig *key_noise =
        job.noise && noiseAffectsCompile(*job.noise) ? &*job.noise
                                                     : nullptr;
    const CacheKeyPair key = computeCacheKey(
        *job.request, *normalized, job.baseline, key_noise);

    CacheProbe probe;
    probe.key = key.key;
    probe.verifier = key.verifier;
    Status status = writeFrame(fd_, FrameType::CacheProbe,
                               encodeCacheProbe(probe));
    if (!status.ok())
        return status;

    auto frame = readFrame(fd_);
    if (!frame.ok())
        return frame.status();
    if (frame->type == FrameType::CacheProbeMiss)
        return compile(job, on_progress);
    if (frame->type != FrameType::CompileReply)
        return Status::invalidArgument(
            std::string("unexpected daemon frame type: ") +
            frameTypeName(frame->type));
    return parseCompileReply(*frame, job);
}

Expected<ClientCompileResult>
ServiceClient::fetch(std::uint64_t cache_key,
                     std::uint64_t cache_verifier)
{
    if (!connected())
        return Status::failedPrecondition(
            "ServiceClient::fetch() before connect()");

    CacheProbe probe;
    probe.key = cache_key;
    probe.verifier = cache_verifier;
    Status status = writeFrame(fd_, FrameType::CacheProbe,
                               encodeCacheProbe(probe));
    if (!status.ok())
        return status;

    auto frame = readFrame(fd_);
    if (!frame.ok())
        return frame.status();
    if (frame->type == FrameType::CacheProbeMiss)
        return Status::failedPrecondition(
            "cache key is not hot on the daemon; compile the job to "
            "warm it");
    if (frame->type != FrameType::CompileReply)
        return Status::invalidArgument(
            std::string("unexpected daemon frame type: ") +
            frameTypeName(frame->type));

    // The artifact keeps the label of the request that produced it;
    // a by-key fetch has no request to restamp it from.
    return decodeReplyFrame(*frame);
}

Expected<ServiceStats>
ServiceClient::stats()
{
    if (!connected())
        return Status::failedPrecondition(
            "ServiceClient::stats() before connect()");
    Status status = writeFrame(fd_, FrameType::StatsRequest, {});
    if (!status.ok())
        return status;
    auto frame = readFrame(fd_);
    if (!frame.ok())
        return frame.status();
    if (frame->type != FrameType::StatsReply)
        return Status::invalidArgument(
            std::string("unexpected daemon frame type: ") +
            frameTypeName(frame->type));
    return decodeServiceStats(frame->payload);
}

Status
ServiceClient::ping()
{
    if (!connected())
        return Status::failedPrecondition(
            "ServiceClient::ping() before connect()");
    Status status = writeFrame(fd_, FrameType::Ping, {});
    if (!status.ok())
        return status;
    auto frame = readFrame(fd_);
    if (!frame.ok())
        return frame.status();
    if (frame->type != FrameType::Pong)
        return Status::invalidArgument(
            std::string("unexpected daemon frame type: ") +
            frameTypeName(frame->type));
    return Status::okStatus();
}

Status
ServiceClient::drain()
{
    if (!connected())
        return Status::failedPrecondition(
            "ServiceClient::drain() before connect()");
    Status status = writeFrame(fd_, FrameType::Drain, {});
    if (!status.ok())
        return status;
    auto frame = readFrame(fd_);
    if (!frame.ok())
        return frame.status();
    if (frame->type != FrameType::DrainReply)
        return Status::invalidArgument(
            std::string("unexpected daemon frame type: ") +
            frameTypeName(frame->type));
    return Status::okStatus();
}

} // namespace dcmbqc

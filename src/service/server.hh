/**
 * @file
 * `ServiceServer`: the long-running compile/execute service behind
 * the `dcmbqcd` daemon. One server owns
 *
 *  - a Unix-domain listening socket speaking the framed protocol of
 *    service/protocol.hh (one session thread per connection);
 *  - one process-wide `CompileCache` (memory LRU tiered to the
 *    sharded on-disk store) shared by every request;
 *  - a fixed `ThreadPool` of compile workers behind a bounded
 *    `AdmissionGate` — a full queue rejects with
 *    `RESOURCE_EXHAUSTED` instead of growing without bound;
 *  - per-request deadlines enforced cooperatively at pass
 *    boundaries through `CancellationToken`;
 *  - a `ServiceMetrics` accumulator serving the `stats` RPC.
 *
 * Warm-hit fast path: the server keeps a map from cache key to the
 * verifier hash it has already validated. A compile-only request
 * whose key *and* verifier match ships the cached artifact bytes
 * straight from the cache — no decode, no worker dispatch, and one
 * pass over the artifact that checks its envelope and computes the
 * frame checksum before one gathered write — so a daemon warm hit
 * costs the same as an in-process warm hit plus a few syscalls.
 *
 * Shutdown is drain-only: `requestDrain()` (async-signal-safe, also
 * triggered by a client `Drain` frame) stops accepting, lets every
 * in-flight request finish, joins all threads, and unlinks the
 * socket.
 */

#ifndef DCMBQC_SERVICE_SERVER_HH
#define DCMBQC_SERVICE_SERVER_HH

#include <atomic>
#include <chrono>
#include <cstdint>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <unordered_map>
#include <vector>

#include "api/status.hh"
#include "common/thread_pool.hh"
#include "cache/compile_cache.hh"
#include "service/admission.hh"
#include "service/metrics.hh"
#include "service/protocol.hh"

namespace dcmbqc
{

/** Startup configuration of one ServiceServer. */
struct ServiceConfig
{
    /** Unix-domain socket path to listen on. */
    std::string socketPath;

    /** Compile worker threads; 0 picks the hardware concurrency. */
    int workers = 0;

    /** Admission slots (queued + running compile jobs). */
    int queueDepth = 16;

    /** On-disk cache store directory; empty = memory-only. */
    std::string cacheDir;

    /** Memory-tier cache capacity in entries; 0 = unbounded. */
    std::size_t cacheCapacity = 256;

    /**
     * Deadline applied to requests that do not carry their own, in
     * milliseconds from receipt; 0 = no default deadline.
     */
    std::uint32_t defaultDeadlineMillis = 0;
};

/** The compile service: accept loop, sessions, workers, hot cache. */
class ServiceServer
{
  public:
    explicit ServiceServer(ServiceConfig config);

    /** Drains and joins everything still running. */
    ~ServiceServer();

    ServiceServer(const ServiceServer &) = delete;
    ServiceServer &operator=(const ServiceServer &) = delete;

    /**
     * Bind the socket, spawn the worker pool and the accept thread.
     * A live daemon already serving the path is reported as
     * `Unavailable`; a stale socket file left by a crashed one is
     * replaced.
     */
    Status start();

    /**
     * Begin a graceful drain: stop accepting, finish in-flight
     * requests, then shut down. Async-signal-safe (an atomic store
     * plus one pipe write), so the daemon's SIGINT/SIGTERM handlers
     * call it directly. Idempotent.
     */
    void requestDrain();

    /** Block until a requested drain has fully completed. */
    void wait();

    /** requestDrain() + wait(). */
    void stop();

    bool draining() const { return draining_.load(); }

    const std::string &socketPath() const
    {
        return config_.socketPath;
    }

    /** The process-wide cache every request shares. */
    const std::shared_ptr<CompileCache> &cache() const
    {
        return cache_;
    }

    /** Current stats snapshot (what the stats RPC replies with). */
    ServiceStats statsSnapshot() const;

  private:
    void acceptLoop();
    void serveSession(int fd);

    /** Handle one CompileRequest frame on a session. */
    void handleCompile(int fd,
                       const std::vector<std::uint8_t> &payload);

    /**
     * Handle one CacheProbe frame: a 16-byte content address in,
     * either the raw hot artifact or a CacheProbeMiss out. No job
     * decode, no re-keying — this is the zero-copy half of the
     * client's probe-then-send fast path.
     */
    void handleProbe(int fd,
                     const std::vector<std::uint8_t> &payload);

    /** Ship the raw cached artifact when key + verifier are known. */
    bool tryHotReply(int fd, const ServiceJob &job,
                     std::chrono::steady_clock::time_point received);

    /**
     * Shared hot-serve step of tryHotReply and handleProbe. With
     * `count_request`, the served reply is also counted as a compile
     * request (the probe path, where no CompileRequest frame ever
     * arrives); metrics always land before the reply is written.
     */
    bool serveHot(int fd, std::uint64_t key, std::uint64_t verifier,
                  std::chrono::steady_clock::time_point received,
                  bool count_request);

    void recordVerifier(std::uint64_t key, std::uint64_t verifier);
    bool knownVerifier(std::uint64_t key,
                       std::uint64_t *verifier) const;

    double millisSince(
        std::chrono::steady_clock::time_point start) const;

    ServiceConfig config_;
    std::shared_ptr<CompileCache> cache_;
    std::unique_ptr<ThreadPool> pool_;
    std::unique_ptr<AdmissionGate> gate_;
    ServiceMetrics metrics_;

    int listenFd_ = -1;
    int wakeRead_ = -1;
    int wakeWrite_ = -1;
    std::atomic<bool> draining_{false};
    std::thread acceptThread_;
    std::mutex sessionMutex_;
    std::vector<std::thread> sessions_;
    std::chrono::steady_clock::time_point startTime_;
    bool started_ = false;

    /** Cache keys whose artifact verifier this server has checked. */
    mutable std::mutex verifierMutex_;
    std::unordered_map<std::uint64_t, std::uint64_t> verifiers_;
};

} // namespace dcmbqc

#endif // DCMBQC_SERVICE_SERVER_HH

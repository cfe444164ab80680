/**
 * @file
 * `ServiceClient`: the CLI-side connection to a running `dcmbqcd`
 * daemon. One client holds one Unix-domain socket and speaks the
 * request/reply protocol of service/protocol.hh: submit a compile
 * job (optionally watching streamed per-pass progress), fetch a
 * stats snapshot, ping, or ask the daemon to drain.
 *
 * `connectOrStart` implements `--autostart`: when nothing is serving
 * the socket, it forks a detached daemon process (double-fork +
 * setsid, so the CLI's exit never reaps or kills it) and polls the
 * socket until the daemon is accepting.
 */

#ifndef DCMBQC_SERVICE_CLIENT_HH
#define DCMBQC_SERVICE_CLIENT_HH

#include <functional>
#include <string>
#include <vector>

#include "api/driver.hh"
#include "api/status.hh"
#include "service/protocol.hh"

namespace dcmbqc
{

/** One compile round trip, decoded back into API types. */
struct ClientCompileResult
{
    /** The daemon's compile report (label fixed up client-side). */
    CompileReport report;

    /** Mirrors of the reply envelope flags. */
    bool cacheHit = false;
    bool hotServed = false;
    std::uint64_t cacheKey = 0;
};

/**
 * Decode a `CompileReply` frame into API types, as the client does:
 * the report comes straight from the frame buffer, its artifact
 * checked by the frame read. A non-OK reply comes back as its
 * status. The report keeps the label it was compiled under.
 */
Expected<ClientCompileResult> decodeReplyFrame(const Frame &frame);

/** Client half of the dcmbqcd wire protocol. */
class ServiceClient
{
  public:
    ServiceClient() = default;
    ~ServiceClient();

    ServiceClient(const ServiceClient &) = delete;
    ServiceClient &operator=(const ServiceClient &) = delete;

    /**
     * Connect to a daemon already serving `socket_path`. Nothing
     * listening comes back as `Unavailable`.
     */
    Status connect(const std::string &socket_path);

    /**
     * Connect, starting a daemon when none is serving the socket.
     * `daemon_argv` is the full argv of the daemon to spawn (argv[0]
     * = executable path); the spawned process is detached from this
     * one's session. Waits up to `timeout_millis` for the daemon to
     * come up.
     */
    Status connectOrStart(const std::string &socket_path,
                          const std::vector<std::string> &daemon_argv,
                          int timeout_millis = 5000);

    bool connected() const { return fd_ >= 0; }
    void close();

    /**
     * Submit one job and block until its CompileReply. Progress
     * frames streamed before the reply (when the job asked for them)
     * are forwarded to `on_progress`. A non-OK job outcome is
     * returned as that status; transport and decode failures come
     * back as `Unavailable` / `InvalidArgument`.
     */
    Expected<ClientCompileResult>
    compile(const ServiceJob &job,
            const std::function<void(const ProgressEvent &)>
                &on_progress = {});

    /**
     * Like compile(), but compile-only jobs first probe the daemon's
     * hot cache with the job's content address computed locally —
     * a 16-byte `CacheProbe` frame instead of re-shipping the whole
     * request IR. A probe hit returns the raw cached artifact at
     * in-process warm-hit cost; a miss (or a job with execution
     * backends) falls back to a full compile() round trip.
     */
    Expected<ClientCompileResult>
    compileCached(const ServiceJob &job,
                  const std::function<void(const ProgressEvent &)>
                      &on_progress = {});

    /**
     * Fetch a hot artifact by its content address alone — the
     * steady-state fast path for a client that already compiled the
     * job once and kept (cacheKey, cacheVerifier) from the report.
     * No request IR is shipped and no key is recomputed on either
     * side; the whole round trip is one 16-byte probe and the raw
     * artifact reply. A key the daemon cannot hot-serve comes back
     * as `FailedPrecondition` (compile the job to warm it).
     */
    Expected<ClientCompileResult>
    fetch(std::uint64_t cache_key, std::uint64_t cache_verifier);

    /** Stats RPC round trip. */
    Expected<ServiceStats> stats();

    /** Liveness probe round trip. */
    Status ping();

    /** Ask the daemon to drain; OK once the drain is acknowledged. */
    Status drain();

  private:
    /** Read frames until the job's CompileReply (or a failure). */
    Expected<ClientCompileResult>
    awaitCompileReply(const ServiceJob &job,
                      const std::function<void(const ProgressEvent &)>
                          &on_progress);

    /** Decode a CompileReply frame, labelled with the job's label. */
    Expected<ClientCompileResult>
    parseCompileReply(const Frame &frame, const ServiceJob &job);

    int fd_ = -1;
};

} // namespace dcmbqc

#endif // DCMBQC_SERVICE_CLIENT_HH

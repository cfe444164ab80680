/**
 * @file
 * Wire protocol of the `dcmbqcd` compile service: a length-prefixed,
 * checksummed frame stream over a Unix-domain socket, carrying
 * request/reply messages whose payloads reuse the DCMB binary codecs
 * (serialize/codecs.hh) for every IR type they embed.
 *
 * Frame layout (all integers little-endian):
 *
 *   offset  size  field
 *        0     4  magic "DSVC"
 *        4     2  protocol version (u16, currently 4)
 *        6     2  frame type tag (u16)
 *        8     8  payload size in bytes (u64)
 *       16     n  payload (type-specific codec below)
 *     16+n     8  FNV-1a 64 checksum of the payload
 *
 * `decodeFrame` / `readFrame` reject bad magic, version skew,
 * truncation, oversized payloads, and checksum mismatches through
 * the Status channel, so a corrupt or hostile byte stream never
 * reaches a message codec.
 *
 * A `CompileReply` that carries a report artifact (itself a
 * checksummed DCMB envelope) is checked in one pass on both sides:
 * the artifact's checksum and the frame's come from the same walk
 * over the artifact bytes (`openArtifact` with an enclosing hash).
 * The daemon frames a hot reply around the cached artifact and sends
 * it with one gathered write once that pass has succeeded; the
 * client's frame read checks the embedded artifact in its checksum
 * pass and decodes the report from the frame buffer, without a copy.
 *
 * The conversation is strictly request/reply per connection; the
 * only server-initiated frames are `Progress` events streamed
 * *before* the final `CompileReply` of a compile the client asked to
 * watch.
 */

#ifndef DCMBQC_SERVICE_PROTOCOL_HH
#define DCMBQC_SERVICE_PROTOCOL_HH

#include <cstdint>
#include <optional>
#include <string>
#include <vector>

#include "api/request.hh"
#include "api/status.hh"
#include "cache/compile_cache.hh"
#include "core/pipeline.hh"
#include "exec/options.hh"
#include "noise/config.hh"
#include "serialize/artifact.hh"

namespace dcmbqc
{

/**
 * Current service protocol version. v2 added the optional NoiseConfig
 * passenger to ServiceJob and to every embedded ExecOptions; v3
 * added the ServiceJob portfolio candidate count and the portfolio
 * section of ServiceStats; v4 added the ServiceJob streaming window
 * size and the window-granular fields of ProgressEvent. Frames from
 * older peers are rejected at the header (no silent re-parse).
 */
inline constexpr std::uint16_t serviceProtocolVersion = 4;

/** Hard ceiling on a frame payload (guards allocation bombs). */
inline constexpr std::size_t serviceMaxFramePayload =
    256ull * 1024 * 1024;

/** Frame type tags of the service protocol. */
enum class FrameType : std::uint16_t
{
    /** Client -> server: one ServiceJob (compile [+ execute]). */
    CompileRequest = 1,

    /** Server -> client: the job's final CompileReply. */
    CompileReply = 2,

    /** Server -> client: one streamed pass-progress event. */
    Progress = 3,

    /** Client -> server: stats RPC (empty payload). */
    StatsRequest = 4,

    /** Server -> client: serialized ServiceStats. */
    StatsReply = 5,

    /** Client -> server: liveness probe (empty payload). */
    Ping = 6,

    /** Server -> client: probe reply (empty payload). */
    Pong = 7,

    /** Client -> server: graceful shutdown request. */
    Drain = 8,

    /** Server -> client: drain acknowledged (empty payload). */
    DrainReply = 9,

    /**
     * Client -> server: content-addressed hot-cache probe. The
     * client computes the job's cache key locally and ships only
     * (key, verifier) — 16 bytes instead of the whole request IR.
     * A hit comes back as a normal `CompileReply` carrying the raw
     * cached artifact; a miss as `CacheProbeMiss`, after which the
     * client follows up with a full `CompileRequest`.
     */
    CacheProbe = 10,

    /** Server -> client: probed key is not hot (empty payload). */
    CacheProbeMiss = 11,
};

/** Stable display name of a frame type ("compile-request", ...). */
const char *frameTypeName(FrameType type);

/** One decoded frame: its type tag plus the validated payload. */
struct Frame
{
    Frame() = default;
    Frame(Frame &&) = default;
    Frame &operator=(Frame &&) = default;

    /** A copy's artifact view would point into the original payload. */
    Frame(const Frame &) = delete;
    Frame &operator=(const Frame &) = delete;

    FrameType type = FrameType::Ping;
    std::vector<std::uint8_t> payload;

    /**
     * Set by `decodeFrame` / `readFrame` on a CompileReply with an OK
     * status: the check of its report artifact, made in the pass that
     * compared the frame checksum. A view points into `payload`, which
     * must not be modified afterwards.
     */
    std::optional<Expected<ArtifactView>> artifact;
};

/** Wrap a payload into a checksummed frame buffer. */
std::vector<std::uint8_t>
encodeFrame(FrameType type, const std::vector<std::uint8_t> &payload);

/**
 * Validate and decode one whole frame from a buffer. `size` must be
 * exactly the frame length (the streamed variant below handles
 * partial reads).
 */
Expected<Frame>
decodeFrame(const std::uint8_t *data, std::size_t size,
            std::size_t max_payload = serviceMaxFramePayload);

Expected<Frame>
decodeFrame(const std::vector<std::uint8_t> &bytes,
            std::size_t max_payload = serviceMaxFramePayload);

/**
 * Write one frame to a connected socket, looping over partial
 * writes. SIGPIPE is suppressed (MSG_NOSIGNAL); a peer that hung up
 * surfaces as an `Unavailable` status instead of killing the
 * process.
 */
Status writeFrame(int fd, FrameType type,
                  const std::vector<std::uint8_t> &payload);

/**
 * Read one frame from a connected socket (blocking), validating the
 * header before the payload is sized, and the checksum after. A
 * clean EOF before any header byte comes back as `Unavailable`
 * ("peer closed"); everything else malformed is `InvalidArgument`.
 */
Expected<Frame>
readFrame(int fd, std::size_t max_payload = serviceMaxFramePayload);

/**
 * A hot `CompileReply` framed around a borrowed artifact for one
 * gathered write: frame header and reply fields, the artifact bytes
 * where they lie, and the frame checksum. Its bytes are those of
 * `encodeFrame(FrameType::CompileReply, encodeCompileReply(reply))`
 * for the OK, cache-hit, hot-served reply carrying that artifact.
 */
struct HotReplyFrame
{
    std::vector<std::uint8_t> head;

    /** The artifact, which must outlive this frame. */
    const std::uint8_t *artifact = nullptr;
    std::size_t artifactSize = 0;

    std::uint8_t trailer[8] = {};
};

/**
 * Frame the hot reply of `key` around `artifact`, checking the
 * artifact's envelope in the pass that computes the frame checksum.
 * An artifact that fails its check comes back as that Status.
 */
Expected<HotReplyFrame>
frameHotReply(std::uint64_t key, const std::vector<std::uint8_t> &artifact);

/**
 * Send a framed hot reply with one gathered write, resuming after a
 * partial one; failures as in `writeFrame`.
 */
Status writeHotReply(int fd, const HotReplyFrame &frame);

// --- Messages --------------------------------------------------------------

/**
 * One unit of service work: a compile request plus the config to
 * compile it under and, optionally, execution backends to run the
 * compiled schedule on. This is the payload of a `CompileRequest`
 * frame.
 */
struct ServiceJob
{
    /**
     * The request payload (entry point + label). Optional only so
     * the struct is default-constructible for decoding; a valid job
     * always carries one.
     */
    std::optional<CompileRequest> request;

    /** Full compiler configuration, including both pass seeds. */
    DcMbqcConfig config;

    /** Run the monolithic baseline pipeline instead of Figure 2. */
    bool baseline = false;

    /**
     * Per-request deadline in milliseconds measured from server
     * receipt (covers queue wait + every pass); 0 defers to the
     * daemon's configured default (which may be "none").
     */
    std::uint32_t deadlineMillis = 0;

    /** Stream per-pass Progress frames before the final reply. */
    bool streamProgress = false;

    /** Backends to execute on after compiling; empty = compile only. */
    std::vector<ExecOptions> backends;

    /**
     * Noise configuration applied to the whole job: a non-vacuous
     * config steers the compiler's cost model (and is part of the
     * job's cache identity) and is installed as the default noise
     * channel of every backend in `backends` that does not carry its
     * own. Absent = noise-free job.
     */
    std::optional<NoiseConfig> noise;

    /**
     * Portfolio candidate count: values > 1 make the daemon race
     * that many compile strategies server-side (sharing the hot
     * cache per candidate) and reply with the winner's artifact,
     * race table attached. 0 and 1 both mean a plain K=1 compile.
     */
    std::uint32_t portfolio = 0;

    /**
     * Streaming window size in gates (`CompileOptions::window`):
     * values > 0 run the job through the windowed front end with
     * this ingest bound, and (with `streamProgress`) stream
     * window-granular Progress frames between pass boundaries.
     * Execution knob only: the compiled content and the cache key
     * are the same for every window size, though a Circuit job's
     * stage list names PatternStream instead of Transpile +
     * PatternBuild. 0 = unwindowed ingest (v4).
     */
    std::uint32_t window = 0;
};

std::vector<std::uint8_t> encodeServiceJob(const ServiceJob &job);
Expected<ServiceJob>
decodeServiceJob(const std::vector<std::uint8_t> &bytes);

/**
 * Hot-cache probe (`CacheProbe` frame payload): the content address
 * of a compile-only job as computed client-side by `computeCacheKey`
 * over the same library the daemon links.
 */
struct CacheProbe
{
    /** Content address of the (request, config, baseline) triple. */
    std::uint64_t key = 0;

    /** Artifact verifier hash the client expects under that key. */
    std::uint64_t verifier = 0;
};

std::vector<std::uint8_t> encodeCacheProbe(const CacheProbe &probe);
Expected<CacheProbe>
decodeCacheProbe(const std::vector<std::uint8_t> &bytes);

/** Final reply of one service job (`CompileReply` frame payload). */
struct CompileReply
{
    /** Job outcome; the artifact below is present only when OK. */
    Status status;

    /** The compile was served from the shared cache. */
    bool cacheHit = false;

    /**
     * The reply bytes were shipped straight from the hot cache
     * without dispatching a worker or decoding the artifact
     * server-side (the zero-lowering fast path).
     */
    bool hotServed = false;

    /** Content address of the (request, config, seed) triple. */
    std::uint64_t cacheKey = 0;

    /** Serialized CompileReport artifact (DCMB envelope). */
    std::vector<std::uint8_t> reportArtifact;
};

std::vector<std::uint8_t> encodeCompileReply(const CompileReply &reply);

/**
 * A `CompileReply` read in place from its frame: the reply fields
 * and, when `status` is OK, a view of the checked report artifact
 * inside the frame payload.
 */
struct CompileReplyView
{
    Status status;
    bool cacheHit = false;
    bool hotServed = false;
    std::uint64_t cacheKey = 0;
    ArtifactView artifact;
};

/**
 * Decode a `CompileReply` frame, the inverse of `encodeCompileReply`,
 * without copying its artifact. The artifact check is the one the
 * frame read made; a frame that did not come from `decodeFrame` /
 * `readFrame` has it checked here.
 */
Expected<CompileReplyView> decodeCompileReply(const Frame &frame);

/**
 * One streamed progress event (`Progress` frame payload): a pass
 * boundary (begin/end), or — since v4 — a *window* boundary fired
 * mid-pass by the streaming stages when the job set a window size.
 */
struct ProgressEvent
{
    /** Request label the event belongs to. */
    std::string label;

    /** Pass name ("Partition", "Execute[statevector]"...). */
    std::string pass;

    /** False at pass begin, true at pass end. */
    bool finished = false;

    /** Pass wall-clock; meaningful only when `finished`. */
    double millis = 0.0;

    /** Pass note; meaningful only when `finished`. */
    std::string note;

    // Window-boundary events (v4) ------------------------------------

    /**
     * True for a mid-pass window boundary: `finished` is false and
     * the four fields below describe streaming progress inside
     * `pass`.
     */
    bool window = false;

    /** Window index within the current pass, from 0. */
    std::uint32_t windowIndex = 0;

    /** Input units settled so far (gates / time slots). */
    std::uint64_t windowSettled = 0;

    /** Total input units, 0 when unknown up front. */
    std::uint64_t windowTotal = 0;

    /** Live frontier size at the boundary, in stage units. */
    std::uint64_t frontierLive = 0;
};

std::vector<std::uint8_t>
encodeProgressEvent(const ProgressEvent &event);
Expected<ProgressEvent>
decodeProgressEvent(const std::vector<std::uint8_t> &bytes);

/**
 * Daemon-wide serving statistics (`StatsReply` frame payload): the
 * cache-hit SLO view of the service — admission counters, latency
 * quantiles, shared-cache counters, and per-stage timing aggregates
 * across every request served since start.
 */
struct ServiceStats
{
    // Request counters ------------------------------------------------------
    std::uint64_t requestsTotal = 0;
    std::uint64_t compileRequests = 0;
    std::uint64_t executeRequests = 0;
    std::uint64_t statsRequests = 0;
    std::uint64_t pings = 0;

    // Outcome counters ------------------------------------------------------
    std::uint64_t succeeded = 0;
    std::uint64_t failed = 0;
    std::uint64_t rejectedQueueFull = 0;
    std::uint64_t deadlineExceeded = 0;
    std::uint64_t cancelled = 0;

    /** Replies served raw from the hot cache (no worker dispatch). */
    std::uint64_t hotReplies = 0;

    /** Cache hits across all compile paths (hot + worker replays). */
    std::uint64_t cacheHitReplies = 0;

    // Gauges ----------------------------------------------------------------
    int inFlight = 0;
    int queueLimit = 0;
    int workers = 0;
    bool draining = false;
    std::uint64_t uptimeMillis = 0;

    // Latency (request receipt -> reply ready), milliseconds ----------------
    std::uint64_t latencySamples = 0;
    double p50Millis = 0.0;
    double p99Millis = 0.0;
    double maxMillis = 0.0;
    double meanMillis = 0.0;

    // Shared compile cache --------------------------------------------------
    CacheStats cache;

    /** Entries resident in the memory tier. */
    std::uint64_t cacheEntries = 0;

    /** Per-stage timing aggregates across all pipeline runs. */
    struct StageAggregate
    {
        std::string pass;
        std::uint64_t count = 0;
        double totalMillis = 0.0;
        double maxMillis = 0.0;
    };
    std::vector<StageAggregate> stages;

    // Portfolio races -------------------------------------------------------

    /** Jobs that raced K > 1 compile strategies. */
    std::uint64_t portfolioRaces = 0;

    /** Candidates compiled across all races. */
    std::uint64_t portfolioCandidates = 0;

    /** Losers cancelled before finishing (straggler control). */
    std::uint64_t portfolioCancelledEarly = 0;

    /** How often each strategy won a race, by strategy name. */
    struct WinnerCount
    {
        std::string strategy;
        std::uint64_t wins = 0;
    };
    std::vector<WinnerCount> portfolioWinners;
};

std::vector<std::uint8_t> encodeServiceStats(const ServiceStats &stats);
Expected<ServiceStats>
decodeServiceStats(const std::vector<std::uint8_t> &bytes);

/** JSON rendering of a stats snapshot (CLI / dashboards). */
std::string toJson(const ServiceStats &stats);

} // namespace dcmbqc

#endif // DCMBQC_SERVICE_PROTOCOL_HH

#include "service/protocol.hh"

#include <poll.h>
#include <sys/socket.h>
#include <sys/uio.h>

#include <algorithm>
#include <cerrno>
#include <cstring>

#include "serialize/binary.hh"
#include "serialize/codecs.hh"
#include "serialize/json.hh"

namespace dcmbqc
{

namespace
{

constexpr std::size_t frameHeaderSize = 16;
constexpr std::size_t frameTrailerSize = 8;
constexpr std::uint8_t frameMagic[4] = {'D', 'S', 'V', 'C'};

bool
validFrameType(std::uint16_t tag)
{
    return tag >= static_cast<std::uint16_t>(FrameType::CompileRequest) &&
        tag <= static_cast<std::uint16_t>(FrameType::CacheProbeMiss);
}

/** The type and payload size a checked frame header announces. */
struct FrameHeader
{
    FrameType type;
    std::uint64_t payloadSize;
};

/**
 * Check the frameHeaderSize bytes at `header`: magic, protocol
 * version, type tag, and a payload size within `max_payload`, so a
 * reader sizes nothing from an unchecked header.
 */
Expected<FrameHeader>
checkFrameHeader(const std::uint8_t *header, std::size_t max_payload)
{
    if (std::memcmp(header, frameMagic, sizeof(frameMagic)) != 0)
        return Status::invalidArgument(
            "bad service frame magic (not a dcmbqcd stream?)");

    BinaryReader fields(header + 4, frameHeaderSize - 4);
    const std::uint16_t version = fields.readU16();
    const std::uint16_t tag = fields.readU16();
    const std::uint64_t payload_size = fields.readU64();
    if (version != serviceProtocolVersion)
        return Status::invalidArgument(
            "unsupported service protocol version " +
            std::to_string(version) + " (this build speaks " +
            std::to_string(serviceProtocolVersion) + ")");
    if (!validFrameType(tag))
        return Status::invalidArgument(
            "unknown service frame type tag " + std::to_string(tag));
    if (payload_size > max_payload)
        return Status::invalidArgument(
            "service frame payload of " +
            std::to_string(payload_size) +
            " bytes exceeds the limit of " +
            std::to_string(max_payload));
    return FrameHeader{static_cast<FrameType>(tag), payload_size};
}

/** Presence-flagged optional NoiseConfig (shared by job + options). */
void
writeOptionalNoise(BinaryWriter &writer,
                   const std::optional<NoiseConfig> &noise)
{
    writer.writeU8(noise ? 1 : 0);
    if (noise)
        encodeNoiseConfig(writer, *noise);
}

std::optional<NoiseConfig>
readOptionalNoise(BinaryReader &reader)
{
    const std::uint8_t present = reader.readU8();
    if (present > 1) {
        reader.fail("invalid noise presence flag " +
                    std::to_string(present));
        return std::nullopt;
    }
    if (present == 0)
        return std::nullopt;
    return decodeNoiseConfig(reader);
}

void
writeExecOptions(BinaryWriter &writer, const ExecOptions &options)
{
    writer.writeString(options.backend);
    writer.writeI32(options.shots);
    writer.writeI64(options.seed);
    writer.writeI32(options.numThreads);
    writer.writeU8(options.applyByproducts ? 1 : 0);
    writer.writeF64(options.lossModel.attenuationDbPerKm);
    writer.writeF64(options.lossModel.cyclePeriodNs);
    writer.writeF64(options.lossModel.speedFraction);
    writeOptionalNoise(writer, options.noise);
}

ExecOptions
readExecOptions(BinaryReader &reader)
{
    ExecOptions options;
    options.backend = reader.readString();
    options.shots = reader.readI32();
    options.seed = reader.readI64();
    options.numThreads = reader.readI32();
    const std::uint8_t byproducts = reader.readU8();
    if (byproducts > 1)
        reader.fail("invalid applyByproducts flag " +
                    std::to_string(byproducts));
    options.applyByproducts = byproducts == 1;
    options.lossModel.attenuationDbPerKm = reader.readF64();
    options.lossModel.cyclePeriodNs = reader.readF64();
    options.lossModel.speedFraction = reader.readF64();
    options.noise = readOptionalNoise(reader);
    return options;
}

/** Read exactly `size` bytes; false on EOF/error. */
bool
recvAll(int fd, std::uint8_t *data, std::size_t size,
        std::size_t *received)
{
    std::size_t done = 0;
    while (done < size) {
        const ssize_t n = ::recv(fd, data + done, size - done, 0);
        if (n > 0) {
            done += static_cast<std::size_t>(n);
            continue;
        }
        if (n < 0 && errno == EINTR)
            continue;
        break;
    }
    if (received)
        *received = done;
    return done == size;
}

/**
 * Send every byte of `iov[0, count)` with gathered writes, resuming
 * after a partial one; a full non-blocking socket is waited on.
 * MSG_NOSIGNAL turns a hung-up peer into an error instead of SIGPIPE.
 */
Status
sendAll(int fd, iovec *iov, std::size_t count)
{
    for (;;) {
        while (count > 0 && iov->iov_len == 0) {
            ++iov;
            --count;
        }
        if (count == 0)
            return Status::okStatus();
        msghdr message{};
        message.msg_iov = iov;
        message.msg_iovlen = count;
        const ssize_t n = ::sendmsg(fd, &message, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n < 0 && (errno == EAGAIN || errno == EWOULDBLOCK)) {
            pollfd room{fd, POLLOUT, 0};
            if (::poll(&room, 1, -1) >= 0 || errno == EINTR)
                continue;
        }
        if (n <= 0)
            return Status::unavailable(
                std::string("service connection write failed: ") +
                std::strerror(errno));
        // Step past what was sent: whole entries, then the front of
        // a partly sent one.
        std::size_t sent = static_cast<std::size_t>(n);
        while (sent > 0) {
            const std::size_t step = std::min(sent, iov->iov_len);
            iov->iov_base = static_cast<std::uint8_t *>(iov->iov_base) +
                step;
            iov->iov_len -= step;
            sent -= step;
            if (iov->iov_len == 0) {
                ++iov;
                --count;
            }
        }
    }
}

/** The 16-byte frame header of a `size`-byte payload. */
void
writeFrameHeader(BinaryWriter &writer, FrameType type, std::uint64_t size)
{
    writer.writeBytes(frameMagic, sizeof(frameMagic));
    writer.writeU16(serviceProtocolVersion);
    writer.writeU16(static_cast<std::uint16_t>(type));
    writer.writeU64(size);
}

constexpr std::uint8_t replyCacheHit = 1;
constexpr std::uint8_t replyHotServed = 2;

/** CompileReply fields ahead of the artifact bytes. */
void
writeReplyFields(BinaryWriter &writer, const Status &status,
                 std::uint8_t flags, std::uint64_t key,
                 std::size_t artifact_size)
{
    encodeStatus(writer, status);
    writer.writeU8(flags);
    writer.writeU64(key);
    writer.writeU64(artifact_size);
}

/** The fields of a CompileReply payload and where its artifact is. */
struct ReplyFields
{
    Status status;
    std::uint8_t flags = 0;
    std::uint64_t cacheKey = 0;
    std::size_t artifactAt = 0;
    std::size_t artifactSize = 0;
};

/**
 * Read the fields of the `size`-byte CompileReply payload `reader`
 * starts on, up to its artifact; errors latch in `reader`.
 */
ReplyFields
readReplyFields(BinaryReader &reader, std::size_t size)
{
    ReplyFields fields;
    fields.status = decodeStatus(reader);
    fields.flags = reader.readU8();
    if ((fields.flags & ~(replyCacheHit | replyHotServed)) != 0)
        reader.fail("invalid compile-reply flags byte " +
                    std::to_string(fields.flags));
    fields.cacheKey = reader.readU64();
    const std::uint64_t artifact_size = reader.readU64();
    if (reader.ok() && artifact_size > reader.remaining())
        reader.fail("compile-reply artifact of " +
                    std::to_string(artifact_size) +
                    " bytes exceeds the remaining payload");
    if (reader.ok()) {
        fields.artifactAt = size - reader.remaining();
        fields.artifactSize = static_cast<std::size_t>(artifact_size);
    }
    return fields;
}

/**
 * FNV-1a checksum of `frame.payload`. The artifact of a CompileReply
 * with an OK status is checked in the same pass into
 * `frame.artifact`, so its bytes are hashed once for both checksums.
 */
std::uint64_t
payloadChecksum(Frame &frame)
{
    const std::uint8_t *payload = frame.payload.data();
    const std::size_t size = frame.payload.size();
    if (frame.type == FrameType::CompileReply) {
        BinaryReader reader(payload, size);
        const ReplyFields fields = readReplyFields(reader, size);
        if (reader.ok() && fields.status.ok()) {
            std::uint64_t hash = fnv1a64(payload, fields.artifactAt);
            frame.artifact = openArtifact(payload + fields.artifactAt,
                                          fields.artifactSize, &hash);
            const std::size_t end = fields.artifactAt + fields.artifactSize;
            return fnv1a64(payload + end, size - end, hash);
        }
    }
    return fnv1a64(payload, size);
}

} // namespace

const char *
frameTypeName(FrameType type)
{
    switch (type) {
      case FrameType::CompileRequest: return "compile-request";
      case FrameType::CompileReply: return "compile-reply";
      case FrameType::Progress: return "progress";
      case FrameType::StatsRequest: return "stats-request";
      case FrameType::StatsReply: return "stats-reply";
      case FrameType::Ping: return "ping";
      case FrameType::Pong: return "pong";
      case FrameType::Drain: return "drain";
      case FrameType::DrainReply: return "drain-reply";
      case FrameType::CacheProbe: return "cache-probe";
      case FrameType::CacheProbeMiss: return "cache-probe-miss";
    }
    return "unknown";
}

std::vector<std::uint8_t>
encodeFrame(FrameType type, const std::vector<std::uint8_t> &payload)
{
    BinaryWriter writer;
    writeFrameHeader(writer, type, payload.size());
    writer.writeBytes(payload.data(), payload.size());
    writer.writeU64(fnv1a64(payload.data(), payload.size()));
    return writer.take();
}

Expected<Frame>
decodeFrame(const std::uint8_t *data, std::size_t size,
            std::size_t max_payload)
{
    if (size < frameHeaderSize + frameTrailerSize)
        return Status::invalidArgument(
            "service frame truncated: " + std::to_string(size) +
            " bytes is smaller than header + checksum");
    const Expected<FrameHeader> header = checkFrameHeader(data, max_payload);
    if (!header.ok())
        return header.status();
    const std::uint64_t payload_size = header->payloadSize;
    if (size != frameHeaderSize + payload_size + frameTrailerSize)
        return Status::invalidArgument(
            "service frame size mismatch: header promises " +
            std::to_string(payload_size) + " payload bytes, buffer "
            "holds " + std::to_string(size));

    const std::uint8_t *payload = data + frameHeaderSize;
    Frame frame;
    frame.type = header->type;
    frame.payload.assign(payload, payload + payload_size);
    BinaryReader trailer(payload + payload_size, frameTrailerSize);
    if (trailer.readU64() != payloadChecksum(frame))
        return Status::invalidArgument(
            "service frame checksum mismatch (corrupted in flight)");
    return frame;
}

Expected<Frame>
decodeFrame(const std::vector<std::uint8_t> &bytes,
            std::size_t max_payload)
{
    return decodeFrame(bytes.data(), bytes.size(), max_payload);
}

Status
writeFrame(int fd, FrameType type,
           const std::vector<std::uint8_t> &payload)
{
    BinaryWriter header;
    writeFrameHeader(header, type, payload.size());
    std::uint8_t trailer[frameTrailerSize];
    detail::storeLittle(trailer, fnv1a64(payload.data(), payload.size()));
    iovec iov[3] = {
        {const_cast<std::uint8_t *>(header.bytes().data()), header.size()},
        {const_cast<std::uint8_t *>(payload.data()), payload.size()},
        {trailer, sizeof(trailer)},
    };
    return sendAll(fd, iov, 3);
}

Expected<Frame>
readFrame(int fd, std::size_t max_payload)
{
    std::uint8_t header[frameHeaderSize];
    std::size_t got = 0;
    if (!recvAll(fd, header, sizeof(header), &got)) {
        if (got == 0)
            return Status::unavailable("peer closed the connection");
        return Status::invalidArgument(
            "service frame header truncated at " +
            std::to_string(got) + " bytes");
    }
    // Size is validated before a single payload byte is allocated.
    const Expected<FrameHeader> checked =
        checkFrameHeader(header, max_payload);
    if (!checked.ok())
        return checked.status();
    const std::uint64_t payload_size = checked->payloadSize;

    Frame frame;
    frame.type = checked->type;
    frame.payload.resize(payload_size);
    if (payload_size > 0 &&
        !recvAll(fd, frame.payload.data(), payload_size, nullptr))
        return Status::invalidArgument(
            "service frame payload truncated (peer hung up "
            "mid-frame)");

    std::uint8_t trailer[frameTrailerSize];
    if (!recvAll(fd, trailer, sizeof(trailer), nullptr))
        return Status::invalidArgument(
            "service frame checksum truncated");
    BinaryReader checksum(trailer, sizeof(trailer));
    if (checksum.readU64() != payloadChecksum(frame))
        return Status::invalidArgument(
            "service frame checksum mismatch (corrupted in flight)");
    return frame;
}

Expected<HotReplyFrame>
frameHotReply(std::uint64_t key, const std::vector<std::uint8_t> &artifact)
{
    BinaryWriter fields;
    writeReplyFields(fields, Status::okStatus(),
                     replyCacheHit | replyHotServed, key, artifact.size());
    std::uint64_t hash = fnv1a64(fields.bytes().data(), fields.size());
    auto checked = openArtifact(artifact.data(), artifact.size(), &hash);
    if (!checked.ok())
        return checked.status();

    HotReplyFrame frame;
    BinaryWriter head;
    writeFrameHeader(head, FrameType::CompileReply,
                     fields.size() + artifact.size());
    head.writeBytes(fields.bytes().data(), fields.size());
    frame.head = head.take();
    frame.artifact = artifact.data();
    frame.artifactSize = artifact.size();
    detail::storeLittle(frame.trailer, hash);
    return frame;
}

Status
writeHotReply(int fd, const HotReplyFrame &frame)
{
    iovec iov[3] = {
        {const_cast<std::uint8_t *>(frame.head.data()), frame.head.size()},
        {const_cast<std::uint8_t *>(frame.artifact), frame.artifactSize},
        {const_cast<std::uint8_t *>(frame.trailer), sizeof(frame.trailer)},
    };
    return sendAll(fd, iov, 3);
}

// --- ServiceJob ------------------------------------------------------------

std::vector<std::uint8_t>
encodeServiceJob(const ServiceJob &job)
{
    BinaryWriter writer;
    const CompileRequest &request = *job.request;
    switch (request.entryPoint()) {
      case CompileRequest::EntryPoint::Circuit:
        writer.writeU8(1);
        encodeCircuit(writer, request.circuit());
        break;
      case CompileRequest::EntryPoint::CircuitStream:
        // Streams cross the wire materialized under the Circuit tag:
        // the compiled content is the same either way (the stage list
        // names the front end the daemon ran), and the daemon's
        // windowed ingest is governed by `job.window`, not by the
        // entry representation.
        writer.writeU8(1);
        encodeCircuit(writer, request.stream().materialize());
        break;
      case CompileRequest::EntryPoint::Pattern:
        writer.writeU8(2);
        encodePattern(writer, request.pattern());
        break;
      case CompileRequest::EntryPoint::Graph:
        writer.writeU8(3);
        encodeGraph(writer, request.graph());
        encodeDigraph(writer, request.deps());
        break;
    }
    writer.writeString(request.label());
    encodeConfig(writer, job.config);
    writer.writeU8(job.baseline ? 1 : 0);
    writer.writeU32(job.deadlineMillis);
    writer.writeU8(job.streamProgress ? 1 : 0);
    writer.writeU32(static_cast<std::uint32_t>(job.backends.size()));
    for (const ExecOptions &backend : job.backends)
        writeExecOptions(writer, backend);
    writeOptionalNoise(writer, job.noise);
    writer.writeU32(job.portfolio);
    writer.writeU32(job.window);
    return writer.take();
}

Expected<ServiceJob>
decodeServiceJob(const std::vector<std::uint8_t> &bytes)
{
    BinaryReader reader(bytes);
    ServiceJob job;

    const std::uint8_t entry = reader.readU8();
    switch (entry) {
      case 1: {
        Circuit circuit = decodeCircuit(reader);
        if (reader.ok())
            job.request =
                CompileRequest::fromCircuit(std::move(circuit));
        break;
      }
      case 2: {
        Pattern pattern = decodePattern(reader);
        if (reader.ok())
            job.request =
                CompileRequest::fromPattern(std::move(pattern));
        break;
      }
      case 3: {
        Graph graph = decodeGraph(reader);
        Digraph deps = decodeDigraph(reader);
        if (reader.ok())
            job.request = CompileRequest::fromGraph(std::move(graph),
                                                    std::move(deps));
        break;
      }
      default:
        reader.fail("invalid job entry-point tag " +
                    std::to_string(entry));
    }

    std::string label = reader.readString();
    if (job.request)
        job.request->withLabel(std::move(label));
    job.config = decodeConfig(reader);
    const std::uint8_t baseline = reader.readU8();
    if (baseline > 1)
        reader.fail("invalid baseline flag " +
                    std::to_string(baseline));
    job.baseline = baseline == 1;
    job.deadlineMillis = reader.readU32();
    const std::uint8_t stream = reader.readU8();
    if (stream > 1)
        reader.fail("invalid streamProgress flag " +
                    std::to_string(stream));
    job.streamProgress = stream == 1;
    const std::uint32_t backends = reader.readCount(1);
    for (std::uint32_t i = 0; i < backends && reader.ok(); ++i)
        job.backends.push_back(readExecOptions(reader));
    job.noise = readOptionalNoise(reader);
    job.portfolio = reader.readU32();
    if (reader.ok() && job.portfolio > 64)
        reader.fail("portfolio candidate count " +
                    std::to_string(job.portfolio) +
                    " exceeds the limit of 64");
    job.window = reader.readU32();

    if (!reader.ok())
        return reader.status();
    if (!reader.atEnd())
        return Status::invalidArgument(
            "service job payload has " +
            std::to_string(reader.remaining()) +
            " trailing bytes");
    return job;
}

// --- CacheProbe ------------------------------------------------------------

std::vector<std::uint8_t>
encodeCacheProbe(const CacheProbe &probe)
{
    BinaryWriter writer;
    writer.writeU64(probe.key);
    writer.writeU64(probe.verifier);
    return writer.take();
}

Expected<CacheProbe>
decodeCacheProbe(const std::vector<std::uint8_t> &bytes)
{
    BinaryReader reader(bytes);
    CacheProbe probe;
    probe.key = reader.readU64();
    probe.verifier = reader.readU64();
    if (!reader.ok())
        return reader.status();
    if (!reader.atEnd())
        return Status::invalidArgument(
            "cache-probe payload has trailing bytes");
    return probe;
}

// --- CompileReply ----------------------------------------------------------

std::vector<std::uint8_t>
encodeCompileReply(const CompileReply &reply)
{
    BinaryWriter writer;
    std::uint8_t flags = 0;
    if (reply.cacheHit)
        flags |= replyCacheHit;
    if (reply.hotServed)
        flags |= replyHotServed;
    writeReplyFields(writer, reply.status, flags, reply.cacheKey,
                     reply.reportArtifact.size());
    writer.writeBytes(reply.reportArtifact.data(),
                      reply.reportArtifact.size());
    return writer.take();
}

Expected<CompileReplyView>
decodeCompileReply(const Frame &frame)
{
    if (frame.type != FrameType::CompileReply)
        return Status::invalidArgument(
            std::string("expected a compile-reply frame, got ") +
            frameTypeName(frame.type));
    BinaryReader reader(frame.payload);
    const ReplyFields fields =
        readReplyFields(reader, frame.payload.size());
    if (!reader.ok())
        return reader.status();
    if (reader.remaining() != fields.artifactSize)
        return Status::invalidArgument(
            "compile-reply payload has trailing bytes");

    CompileReplyView reply;
    reply.status = fields.status;
    reply.cacheHit = (fields.flags & replyCacheHit) != 0;
    reply.hotServed = (fields.flags & replyHotServed) != 0;
    reply.cacheKey = fields.cacheKey;
    if (!reply.status.ok())
        return reply;

    const Expected<ArtifactView> view = frame.artifact
        ? *frame.artifact
        : openArtifact(frame.payload.data() + fields.artifactAt,
                       fields.artifactSize);
    if (!view.ok())
        return view.status();
    reply.artifact = *view;
    return reply;
}

// --- ProgressEvent ---------------------------------------------------------

std::vector<std::uint8_t>
encodeProgressEvent(const ProgressEvent &event)
{
    BinaryWriter writer;
    writer.writeString(event.label);
    writer.writeString(event.pass);
    writer.writeU8(event.finished ? 1 : 0);
    writer.writeF64(event.millis);
    writer.writeString(event.note);
    writer.writeU8(event.window ? 1 : 0);
    writer.writeU32(event.windowIndex);
    writer.writeU64(event.windowSettled);
    writer.writeU64(event.windowTotal);
    writer.writeU64(event.frontierLive);
    return writer.take();
}

Expected<ProgressEvent>
decodeProgressEvent(const std::vector<std::uint8_t> &bytes)
{
    BinaryReader reader(bytes);
    ProgressEvent event;
    event.label = reader.readString();
    event.pass = reader.readString();
    const std::uint8_t finished = reader.readU8();
    if (finished > 1)
        reader.fail("invalid progress finished flag " +
                    std::to_string(finished));
    event.finished = finished == 1;
    event.millis = reader.readF64();
    event.note = reader.readString();
    const std::uint8_t window = reader.readU8();
    if (window > 1)
        reader.fail("invalid progress window flag " +
                    std::to_string(window));
    event.window = window == 1;
    event.windowIndex = reader.readU32();
    event.windowSettled = reader.readU64();
    event.windowTotal = reader.readU64();
    event.frontierLive = reader.readU64();
    if (!reader.ok())
        return reader.status();
    if (!reader.atEnd())
        return Status::invalidArgument(
            "progress payload has trailing bytes");
    return event;
}

// --- ServiceStats ----------------------------------------------------------

std::vector<std::uint8_t>
encodeServiceStats(const ServiceStats &stats)
{
    BinaryWriter writer;
    writer.writeU64(stats.requestsTotal);
    writer.writeU64(stats.compileRequests);
    writer.writeU64(stats.executeRequests);
    writer.writeU64(stats.statsRequests);
    writer.writeU64(stats.pings);
    writer.writeU64(stats.succeeded);
    writer.writeU64(stats.failed);
    writer.writeU64(stats.rejectedQueueFull);
    writer.writeU64(stats.deadlineExceeded);
    writer.writeU64(stats.cancelled);
    writer.writeU64(stats.hotReplies);
    writer.writeU64(stats.cacheHitReplies);
    writer.writeI32(stats.inFlight);
    writer.writeI32(stats.queueLimit);
    writer.writeI32(stats.workers);
    writer.writeU8(stats.draining ? 1 : 0);
    writer.writeU64(stats.uptimeMillis);
    writer.writeU64(stats.latencySamples);
    writer.writeF64(stats.p50Millis);
    writer.writeF64(stats.p99Millis);
    writer.writeF64(stats.maxMillis);
    writer.writeF64(stats.meanMillis);
    writer.writeU64(stats.cache.hits);
    writer.writeU64(stats.cache.misses);
    writer.writeU64(stats.cache.evictions);
    writer.writeU64(stats.cache.diskHits);
    writer.writeU64(stats.cache.diskWrites);
    writer.writeU64(stats.cacheEntries);
    writer.writeU32(static_cast<std::uint32_t>(stats.stages.size()));
    for (const ServiceStats::StageAggregate &stage : stats.stages) {
        writer.writeString(stage.pass);
        writer.writeU64(stage.count);
        writer.writeF64(stage.totalMillis);
        writer.writeF64(stage.maxMillis);
    }
    writer.writeU64(stats.portfolioRaces);
    writer.writeU64(stats.portfolioCandidates);
    writer.writeU64(stats.portfolioCancelledEarly);
    writer.writeU32(
        static_cast<std::uint32_t>(stats.portfolioWinners.size()));
    for (const ServiceStats::WinnerCount &winner :
         stats.portfolioWinners) {
        writer.writeString(winner.strategy);
        writer.writeU64(winner.wins);
    }
    return writer.take();
}

Expected<ServiceStats>
decodeServiceStats(const std::vector<std::uint8_t> &bytes)
{
    BinaryReader reader(bytes);
    ServiceStats stats;
    stats.requestsTotal = reader.readU64();
    stats.compileRequests = reader.readU64();
    stats.executeRequests = reader.readU64();
    stats.statsRequests = reader.readU64();
    stats.pings = reader.readU64();
    stats.succeeded = reader.readU64();
    stats.failed = reader.readU64();
    stats.rejectedQueueFull = reader.readU64();
    stats.deadlineExceeded = reader.readU64();
    stats.cancelled = reader.readU64();
    stats.hotReplies = reader.readU64();
    stats.cacheHitReplies = reader.readU64();
    stats.inFlight = reader.readI32();
    stats.queueLimit = reader.readI32();
    stats.workers = reader.readI32();
    const std::uint8_t draining = reader.readU8();
    if (draining > 1)
        reader.fail("invalid draining flag " +
                    std::to_string(draining));
    stats.draining = draining == 1;
    stats.uptimeMillis = reader.readU64();
    stats.latencySamples = reader.readU64();
    stats.p50Millis = reader.readF64();
    stats.p99Millis = reader.readF64();
    stats.maxMillis = reader.readF64();
    stats.meanMillis = reader.readF64();
    stats.cache.hits = reader.readU64();
    stats.cache.misses = reader.readU64();
    stats.cache.evictions = reader.readU64();
    stats.cache.diskHits = reader.readU64();
    stats.cache.diskWrites = reader.readU64();
    stats.cacheEntries = reader.readU64();
    const std::uint32_t stages = reader.readCount(1);
    for (std::uint32_t i = 0; i < stages && reader.ok(); ++i) {
        ServiceStats::StageAggregate stage;
        stage.pass = reader.readString();
        stage.count = reader.readU64();
        stage.totalMillis = reader.readF64();
        stage.maxMillis = reader.readF64();
        stats.stages.push_back(std::move(stage));
    }
    stats.portfolioRaces = reader.readU64();
    stats.portfolioCandidates = reader.readU64();
    stats.portfolioCancelledEarly = reader.readU64();
    const std::uint32_t winners = reader.readCount(1);
    for (std::uint32_t i = 0; i < winners && reader.ok(); ++i) {
        ServiceStats::WinnerCount winner;
        winner.strategy = reader.readString();
        winner.wins = reader.readU64();
        stats.portfolioWinners.push_back(std::move(winner));
    }
    if (!reader.ok())
        return reader.status();
    if (!reader.atEnd())
        return Status::invalidArgument(
            "service-stats payload has trailing bytes");
    return stats;
}

std::string
toJson(const ServiceStats &stats)
{
    JsonWriter json;
    json.beginObject();
    json.key("requests").beginObject();
    json.key("total").value((unsigned long long)stats.requestsTotal);
    json.key("compile")
        .value((unsigned long long)stats.compileRequests);
    json.key("execute")
        .value((unsigned long long)stats.executeRequests);
    json.key("stats").value((unsigned long long)stats.statsRequests);
    json.key("pings").value((unsigned long long)stats.pings);
    json.endObject();
    json.key("outcomes").beginObject();
    json.key("succeeded").value((unsigned long long)stats.succeeded);
    json.key("failed").value((unsigned long long)stats.failed);
    json.key("rejectedQueueFull")
        .value((unsigned long long)stats.rejectedQueueFull);
    json.key("deadlineExceeded")
        .value((unsigned long long)stats.deadlineExceeded);
    json.key("cancelled").value((unsigned long long)stats.cancelled);
    json.key("hotReplies")
        .value((unsigned long long)stats.hotReplies);
    json.key("cacheHitReplies")
        .value((unsigned long long)stats.cacheHitReplies);
    json.endObject();
    json.key("gauges").beginObject();
    json.key("inFlight").value(stats.inFlight);
    json.key("queueLimit").value(stats.queueLimit);
    json.key("workers").value(stats.workers);
    json.key("draining").value(stats.draining);
    json.key("uptimeMillis")
        .value((unsigned long long)stats.uptimeMillis);
    json.endObject();
    json.key("latencyMillis").beginObject();
    json.key("samples")
        .value((unsigned long long)stats.latencySamples);
    json.key("p50").value(stats.p50Millis);
    json.key("p99").value(stats.p99Millis);
    json.key("max").value(stats.maxMillis);
    json.key("mean").value(stats.meanMillis);
    json.endObject();
    json.key("cache").beginObject();
    json.key("hits").value((unsigned long long)stats.cache.hits);
    json.key("misses").value((unsigned long long)stats.cache.misses);
    json.key("evictions")
        .value((unsigned long long)stats.cache.evictions);
    json.key("diskHits")
        .value((unsigned long long)stats.cache.diskHits);
    json.key("diskWrites")
        .value((unsigned long long)stats.cache.diskWrites);
    json.key("memoryEntries")
        .value((unsigned long long)stats.cacheEntries);
    json.endObject();
    json.key("portfolio").beginObject();
    json.key("races").value((unsigned long long)stats.portfolioRaces);
    json.key("candidates")
        .value((unsigned long long)stats.portfolioCandidates);
    json.key("cancelledEarly")
        .value((unsigned long long)stats.portfolioCancelledEarly);
    json.key("winners").beginArray();
    for (const ServiceStats::WinnerCount &winner :
         stats.portfolioWinners) {
        json.beginObject();
        json.key("strategy").value(winner.strategy);
        json.key("wins").value((unsigned long long)winner.wins);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    json.key("stages").beginArray();
    for (const ServiceStats::StageAggregate &stage : stats.stages) {
        json.beginObject();
        json.key("pass").value(stage.pass);
        json.key("count").value((unsigned long long)stage.count);
        json.key("totalMillis").value(stage.totalMillis);
        json.key("maxMillis").value(stage.maxMillis);
        json.endObject();
    }
    json.endArray();
    json.endObject();
    return json.take();
}

} // namespace dcmbqc

/**
 * @file
 * Tests of the dcmbqcd wire protocol (service/protocol.hh): frame
 * envelope round trips and rejection of corrupt/truncated/oversized
 * frames through the Status channel, the message codecs (ServiceJob
 * for all three compile entry points, CompileReply, CacheProbe,
 * ProgressEvent, ServiceStats), streamed framing over a real socket
 * pair, and the hot CompileReply: its gathered write, and the one
 * pass that checks the frame and its embedded artifact.
 */

#include <gtest/gtest.h>

#include <fcntl.h>
#include <sys/socket.h>
#include <unistd.h>

#include <cstring>
#include <random>
#include <thread>

#include "api/api.hh"
#include "circuit/generators.hh"
#include "circuit/huge_generators.hh"
#include "mbqc/dependency.hh"
#include "mbqc/pattern_builder.hh"
#include "serialize/binary.hh"
#include "serialize/codecs.hh"
#include "service/protocol.hh"

namespace dcmbqc
{
namespace
{

std::vector<std::uint8_t>
somePayload()
{
    return {1, 2, 3, 4, 5, 6, 7, 8, 9};
}

ServiceJob
graphJob()
{
    const Circuit circuit = makeQft(5);
    Pattern pattern = buildPattern(circuit);
    Digraph deps = realTimeDependencyGraph(pattern);
    ServiceJob job;
    job.request = CompileRequest::fromGraph(pattern.graph(),
                                            std::move(deps), "qft-5");
    job.config.numQpus = 2;
    job.config.grid.size = 7;
    job.baseline = false;
    job.deadlineMillis = 1500;
    job.streamProgress = true;
    return job;
}

TEST(ServiceFrame, RoundTripsEveryType)
{
    for (FrameType type :
         {FrameType::CompileRequest, FrameType::CompileReply,
          FrameType::Progress, FrameType::StatsRequest,
          FrameType::StatsReply, FrameType::Ping, FrameType::Pong,
          FrameType::Drain, FrameType::DrainReply,
          FrameType::CacheProbe, FrameType::CacheProbeMiss}) {
        const auto bytes = encodeFrame(type, somePayload());
        auto frame = decodeFrame(bytes);
        ASSERT_TRUE(frame.ok()) << frame.status().toString();
        EXPECT_EQ(frame->type, type);
        EXPECT_EQ(frame->payload, somePayload());
        EXPECT_STRNE(frameTypeName(type), "unknown");
    }
}

TEST(ServiceFrame, RoundTripsEmptyPayload)
{
    const auto bytes = encodeFrame(FrameType::Ping, {});
    auto frame = decodeFrame(bytes);
    ASSERT_TRUE(frame.ok());
    EXPECT_TRUE(frame->payload.empty());
}

TEST(ServiceFrame, RejectsBadMagic)
{
    auto bytes = encodeFrame(FrameType::Ping, somePayload());
    bytes[0] = 'X';
    auto frame = decodeFrame(bytes);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(frame.status().message().find("magic"),
              std::string::npos);
}

TEST(ServiceFrame, RejectsVersionSkew)
{
    auto bytes = encodeFrame(FrameType::Ping, somePayload());
    bytes[4] = static_cast<std::uint8_t>(serviceProtocolVersion + 1);
    auto frame = decodeFrame(bytes);
    ASSERT_FALSE(frame.ok());
    EXPECT_NE(frame.status().message().find("version"),
              std::string::npos);
}

TEST(ServiceFrame, RejectsUnknownType)
{
    auto bytes = encodeFrame(FrameType::Ping, somePayload());
    bytes[6] = 0xEE;
    bytes[7] = 0xEE;
    auto frame = decodeFrame(bytes);
    ASSERT_FALSE(frame.ok());
    EXPECT_NE(frame.status().message().find("type"),
              std::string::npos);
}

TEST(ServiceFrame, RejectsTruncatedBuffer)
{
    auto bytes = encodeFrame(FrameType::Ping, somePayload());
    bytes.resize(bytes.size() - 3);
    auto frame = decodeFrame(bytes);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), StatusCode::InvalidArgument);
}

TEST(ServiceFrame, RejectsTooSmallBuffer)
{
    const std::vector<std::uint8_t> bytes = {'D', 'S', 'V', 'C', 1};
    auto frame = decodeFrame(bytes);
    ASSERT_FALSE(frame.ok());
    EXPECT_NE(frame.status().message().find("truncated"),
              std::string::npos);
}

TEST(ServiceFrame, RejectsOversizedPayloadBeforeAllocation)
{
    auto bytes = encodeFrame(FrameType::Ping, somePayload());
    auto frame = decodeFrame(bytes, /*max_payload=*/4);
    ASSERT_FALSE(frame.ok());
    EXPECT_NE(frame.status().message().find("exceeds"),
              std::string::npos);
}

TEST(ServiceFrame, RejectsChecksumMismatch)
{
    auto bytes = encodeFrame(FrameType::Ping, somePayload());
    // Flip one payload bit; the trailing FNV no longer matches.
    bytes[16] ^= 0x01;
    auto frame = decodeFrame(bytes);
    ASSERT_FALSE(frame.ok());
    EXPECT_NE(frame.status().message().find("checksum"),
              std::string::npos);
}

TEST(ServiceFrame, SocketRoundTrip)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const Status sent =
        writeFrame(fds[0], FrameType::CompileReply, somePayload());
    ASSERT_TRUE(sent.ok()) << sent.toString();
    auto frame = readFrame(fds[1]);
    ASSERT_TRUE(frame.ok()) << frame.status().toString();
    EXPECT_EQ(frame->type, FrameType::CompileReply);
    EXPECT_EQ(frame->payload, somePayload());
    ::close(fds[0]);
    ::close(fds[1]);
}

TEST(ServiceFrame, SocketCleanCloseIsUnavailable)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    ::close(fds[0]);
    auto frame = readFrame(fds[1]);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), StatusCode::Unavailable);
    ::close(fds[1]);
}

TEST(ServiceFrame, SocketMidFrameHangupIsInvalidArgument)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const auto bytes = encodeFrame(FrameType::Ping, somePayload());
    // Ship only half the frame, then hang up.
    ASSERT_GT(::send(fds[0], bytes.data(), bytes.size() / 2,
                     MSG_NOSIGNAL),
              0);
    ::close(fds[0]);
    auto frame = readFrame(fds[1]);
    ASSERT_FALSE(frame.ok());
    EXPECT_EQ(frame.status().code(), StatusCode::InvalidArgument);
    ::close(fds[1]);
}

TEST(ServiceFrame, SocketOversizedPayloadRejectedBeforeRead)
{
    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    const auto bytes = encodeFrame(FrameType::Ping, somePayload());
    ASSERT_GT(::send(fds[0], bytes.data(), bytes.size(),
                     MSG_NOSIGNAL),
              0);
    auto frame = readFrame(fds[1], /*max_payload=*/4);
    ASSERT_FALSE(frame.ok());
    EXPECT_NE(frame.status().message().find("exceeds"),
              std::string::npos);
    ::close(fds[0]);
    ::close(fds[1]);
}

// --- ServiceJob ------------------------------------------------------------

TEST(ServiceJobCodec, RoundTripsGraphEntry)
{
    const ServiceJob job = graphJob();
    const auto bytes = encodeServiceJob(job);
    auto decoded = decodeServiceJob(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    ASSERT_TRUE(decoded->request.has_value());
    EXPECT_EQ(decoded->request->entryPoint(),
              CompileRequest::EntryPoint::Graph);
    EXPECT_EQ(decoded->request->label(), "qft-5");
    EXPECT_EQ(decoded->deadlineMillis, 1500u);
    EXPECT_TRUE(decoded->streamProgress);
    EXPECT_FALSE(decoded->baseline);
    // Re-encoding the decoded job reproduces the exact bytes.
    EXPECT_EQ(encodeServiceJob(*decoded), bytes);
}

TEST(ServiceJobCodec, RoundTripsCircuitEntryWithBackends)
{
    ServiceJob job;
    job.request =
        CompileRequest::fromCircuit(makeQft(4), "qft-4-exec");
    job.config.numQpus = 2;
    job.config.grid.size = 7;
    ExecOptions exec;
    exec.backend = "stabilizer";
    exec.shots = 64;
    exec.seed = 77;
    exec.numThreads = 2;
    exec.applyByproducts = false;
    exec.lossModel.attenuationDbPerKm = 0.3;
    job.backends = {ExecOptions{}, exec};

    const auto bytes = encodeServiceJob(job);
    auto decoded = decodeServiceJob(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->request->entryPoint(),
              CompileRequest::EntryPoint::Circuit);
    ASSERT_EQ(decoded->backends.size(), 2u);
    EXPECT_EQ(decoded->backends[0].backend, "statevector");
    EXPECT_EQ(decoded->backends[1].backend, "stabilizer");
    EXPECT_EQ(decoded->backends[1].shots, 64);
    EXPECT_EQ(decoded->backends[1].seed, 77);
    EXPECT_FALSE(decoded->backends[1].applyByproducts);
    EXPECT_DOUBLE_EQ(decoded->backends[1].lossModel.attenuationDbPerKm,
                     0.3);
    EXPECT_EQ(encodeServiceJob(*decoded), bytes);
}

TEST(ServiceJobCodec, RoundTripsWindowField)
{
    ServiceJob job;
    job.request = CompileRequest::fromCircuit(makeQft(4), "qft-4-w");
    job.config.numQpus = 2;
    job.config.grid.size = 7;
    job.window = 4096;

    const auto bytes = encodeServiceJob(job);
    auto decoded = decodeServiceJob(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->window, 4096u);
    EXPECT_EQ(encodeServiceJob(*decoded), bytes);
}

TEST(ServiceJobCodec, CircuitStreamEntryMaterializesOnTheWire)
{
    // A stream-entry job crosses the wire as its materialized
    // circuit: byte-identical to sending the circuit directly.
    const auto stream = makeDeepQaoaStream(6, 2);

    ServiceJob from_stream;
    from_stream.request =
        CompileRequest::fromCircuitStream(stream, "deepqaoa");
    from_stream.config.numQpus = 2;
    from_stream.window = 64;

    Circuit materialized = stream->materialize();
    ServiceJob from_circuit;
    from_circuit.request =
        CompileRequest::fromCircuit(materialized, "deepqaoa");
    from_circuit.config.numQpus = 2;
    from_circuit.window = 64;

    EXPECT_EQ(encodeServiceJob(from_stream),
              encodeServiceJob(from_circuit));
    auto decoded = decodeServiceJob(encodeServiceJob(from_stream));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->request->entryPoint(),
              CompileRequest::EntryPoint::Circuit);
    EXPECT_EQ(decoded->window, 64u);
}

TEST(ServiceJobCodec, RoundTripsPatternEntryAndBaseline)
{
    ServiceJob job;
    job.request = CompileRequest::fromPattern(
        buildPattern(makeQft(4)), "qft-4-pattern");
    job.config.grid.size = 7;
    job.baseline = true;

    const auto bytes = encodeServiceJob(job);
    auto decoded = decodeServiceJob(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->request->entryPoint(),
              CompileRequest::EntryPoint::Pattern);
    EXPECT_TRUE(decoded->baseline);
    EXPECT_EQ(encodeServiceJob(*decoded), bytes);
}

TEST(ServiceJobCodec, RejectsBadEntryTagAndTrailingBytes)
{
    auto bytes = encodeServiceJob(graphJob());
    auto bad_tag = bytes;
    bad_tag[0] = 9;
    EXPECT_FALSE(decodeServiceJob(bad_tag).ok());

    auto trailing = bytes;
    trailing.push_back(0);
    auto decoded = decodeServiceJob(trailing);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().message().find("trailing"),
              std::string::npos);

    auto truncated = bytes;
    truncated.resize(truncated.size() / 2);
    EXPECT_FALSE(decodeServiceJob(truncated).ok());
}

// --- CacheProbe ------------------------------------------------------------

TEST(CacheProbeCodec, RoundTrips)
{
    CacheProbe probe;
    probe.key = 0xDEADBEEFCAFEF00Dull;
    probe.verifier = 0x0123456789ABCDEFull;
    const auto bytes = encodeCacheProbe(probe);
    EXPECT_EQ(bytes.size(), 16u);
    auto decoded = decodeCacheProbe(bytes);
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->key, probe.key);
    EXPECT_EQ(decoded->verifier, probe.verifier);
}

TEST(CacheProbeCodec, RejectsWrongSize)
{
    auto bytes = encodeCacheProbe(CacheProbe{1, 2});
    bytes.push_back(0);
    EXPECT_FALSE(decodeCacheProbe(bytes).ok());
    bytes.resize(7);
    EXPECT_FALSE(decodeCacheProbe(bytes).ok());
}

// --- CompileReply ----------------------------------------------------------

/** A CompileReply payload as the client reads it: framed, checked. */
Frame
replyFrame(const std::vector<std::uint8_t> &payload)
{
    auto frame =
        decodeFrame(encodeFrame(FrameType::CompileReply, payload));
    EXPECT_TRUE(frame.ok()) << frame.status().toString();
    return frame.ok() ? std::move(frame).value() : Frame();
}

TEST(CompileReplyCodec, RoundTripsSuccess)
{
    CompileReply reply;
    reply.status = Status::okStatus();
    reply.cacheHit = true;
    reply.hotServed = true;
    reply.cacheKey = 42;
    reply.reportArtifact =
        sealArtifact(ArtifactKind::CompileReport, somePayload());
    const Frame frame = replyFrame(encodeCompileReply(reply));
    auto decoded = decodeCompileReply(frame);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_TRUE(decoded->status.ok());
    EXPECT_TRUE(decoded->cacheHit);
    EXPECT_TRUE(decoded->hotServed);
    EXPECT_EQ(decoded->cacheKey, 42u);
    const ArtifactView &artifact = decoded->artifact;
    EXPECT_EQ(std::vector<std::uint8_t>(
                  artifact.payload, artifact.payload + artifact.payloadSize),
              somePayload());
}

TEST(CompileReplyCodec, RoundTripsEveryStatusCode)
{
    const Status statuses[] = {
        Status::invalidArgument("a"),  Status::invalidConfig("b"),
        Status::failedPrecondition("c"), Status::internal("d"),
        Status::cancelled("e"),        Status::deadlineExceeded("f"),
        Status::resourceExhausted("g"), Status::unavailable("h"),
    };
    for (const Status &status : statuses) {
        CompileReply reply;
        reply.status = status;
        const Frame frame = replyFrame(encodeCompileReply(reply));
        auto decoded = decodeCompileReply(frame);
        ASSERT_TRUE(decoded.ok());
        EXPECT_EQ(decoded->status.code(), status.code());
        EXPECT_EQ(decoded->status.message(), status.message());
    }
}

TEST(CompileReplyCodec, RejectsBadFlagsAndArtifactOverrun)
{
    CompileReply reply;
    reply.status = Status::okStatus();
    reply.reportArtifact = somePayload();
    auto bytes = encodeCompileReply(reply);

    // Flags byte sits right after the status (u8 code + u32 len).
    const std::size_t flags_at = 1 + 4;
    auto bad_flags = bytes;
    ASSERT_EQ(bad_flags[flags_at], 0u);
    bad_flags[flags_at] = 0xF0;
    EXPECT_FALSE(decodeCompileReply(replyFrame(bad_flags)).ok());

    // Artifact length promising more bytes than the payload holds.
    auto overrun = bytes;
    overrun[flags_at + 1 + 8] = 0xFF;
    EXPECT_FALSE(decodeCompileReply(replyFrame(overrun)).ok());
}

// --- The hot CompileReply --------------------------------------------------

TEST(FnvPair, EqualsTwoSingleChains)
{
    std::mt19937_64 rng(26);
    std::vector<std::uint8_t> bytes(257);
    for (std::uint8_t &byte : bytes)
        byte = static_cast<std::uint8_t>(rng());
    for (std::size_t size = 0; size <= bytes.size(); ++size) {
        const std::uint64_t first_seed = rng();
        const std::uint64_t second_seed = rng();
        std::uint64_t first = first_seed;
        std::uint64_t second = second_seed;
        fnv1a64Pair(bytes.data(), size, &first, &second);
        EXPECT_EQ(first, fnv1a64(bytes.data(), size, first_seed)) << size;
        EXPECT_EQ(second, fnv1a64(bytes.data(), size, second_seed))
            << size;
    }
}

/** A compiled report artifact, as the daemon's cache holds it. */
const std::vector<std::uint8_t> &
reportArtifact()
{
    static const std::vector<std::uint8_t> bytes = [] {
        const CompilerDriver driver(
            CompileOptions().numQpus(2).gridSize(9).seed(1));
        auto report = driver.compile(
            CompileRequest::fromCircuit(makeQft(16), "qft-16"));
        EXPECT_TRUE(report.ok()) << report.status().toString();
        return report.ok() ? encodeCompileReportArtifact(*report)
                           : std::vector<std::uint8_t>{};
    }();
    return bytes;
}

/** The reply the daemon hot-serves for `key`. */
CompileReply
hotReply(std::uint64_t key)
{
    CompileReply reply;
    reply.status = Status::okStatus();
    reply.cacheHit = true;
    reply.hotServed = true;
    reply.cacheKey = key;
    reply.reportArtifact = reportArtifact();
    return reply;
}

std::vector<std::uint8_t>
hotFrameBytes(std::uint64_t key)
{
    return encodeFrame(FrameType::CompileReply,
                       encodeCompileReply(hotReply(key)));
}

/** Everything `fd` receives until the peer closes it. */
std::vector<std::uint8_t>
receiveAll(int fd)
{
    std::vector<std::uint8_t> received;
    std::uint8_t chunk[1024];
    for (;;) {
        const ssize_t n = ::recv(fd, chunk, sizeof(chunk), 0);
        if (n <= 0)
            return received;
        received.insert(received.end(), chunk, chunk + n);
    }
}

TEST(HotReply, FramedBytesEqualTheEncodedFrame)
{
    const CompileReply reply = hotReply(0xfeedull);
    auto frame = frameHotReply(reply.cacheKey, reply.reportArtifact);
    ASSERT_TRUE(frame.ok()) << frame.status().toString();
    std::vector<std::uint8_t> gathered = frame->head;
    gathered.insert(gathered.end(), frame->artifact,
                    frame->artifact + frame->artifactSize);
    gathered.insert(gathered.end(), frame->trailer,
                    frame->trailer + sizeof(frame->trailer));
    EXPECT_EQ(gathered, hotFrameBytes(reply.cacheKey));
    // The artifact is borrowed, not copied.
    EXPECT_EQ(frame->artifact, reply.reportArtifact.data());
}

TEST(HotReply, GatheredWriteResumesAfterPartialWrites)
{
    const CompileReply reply = hotReply(0xfeedull);
    const auto expected = hotFrameBytes(reply.cacheKey);
    auto frame = frameHotReply(reply.cacheKey, reply.reportArtifact);
    ASSERT_TRUE(frame.ok()) << frame.status().toString();

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    // A non-blocking sender with a send buffer a fraction of the
    // reply: each sendmsg takes only part of it.
    int small = 4096;
    ASSERT_EQ(::setsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &small,
                           sizeof(small)),
              0);
    int actual = 0;
    socklen_t length = sizeof(actual);
    ASSERT_EQ(::getsockopt(fds[0], SOL_SOCKET, SO_SNDBUF, &actual,
                           &length),
              0);
    ASSERT_LT(static_cast<std::size_t>(actual), expected.size() / 8);
    ASSERT_EQ(::fcntl(fds[0], F_SETFL, O_NONBLOCK), 0);

    std::vector<std::uint8_t> received;
    std::thread reader([&] { received = receiveAll(fds[1]); });
    const Status sent = writeHotReply(fds[0], *frame);
    ::close(fds[0]);
    reader.join();
    ::close(fds[1]);
    ASSERT_TRUE(sent.ok()) << sent.toString();
    EXPECT_EQ(received, expected);
}

TEST(HotReply, FrameReadChecksTheArtifactInItsPass)
{
    const CompileReply reply = hotReply(0xbeefull);
    auto frame = frameHotReply(reply.cacheKey, reply.reportArtifact);
    ASSERT_TRUE(frame.ok()) << frame.status().toString();

    int fds[2];
    ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
    Status sent;
    std::thread writer(
        [&] { sent = writeHotReply(fds[0], *frame); });
    auto read = readFrame(fds[1]);
    writer.join();
    ::close(fds[0]);
    ::close(fds[1]);
    ASSERT_TRUE(sent.ok()) << sent.toString();
    ASSERT_TRUE(read.ok()) << read.status().toString();
    ASSERT_TRUE(read->artifact.has_value());
    ASSERT_TRUE(read->artifact->ok())
        << read->artifact->status().toString();

    auto decoded = decodeCompileReply(*read);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_TRUE(decoded->status.ok());
    EXPECT_TRUE(decoded->cacheHit);
    EXPECT_TRUE(decoded->hotServed);
    EXPECT_EQ(decoded->cacheKey, reply.cacheKey);
    // The artifact view points into the frame buffer: no copy.
    const std::uint8_t *begin = read->payload.data();
    EXPECT_GE(decoded->artifact.payload, begin);
    EXPECT_LE(decoded->artifact.payload + decoded->artifact.payloadSize,
              begin + read->payload.size());
    EXPECT_EQ(decoded->artifact.kind, ArtifactKind::CompileReport);
    EXPECT_TRUE(decodeCompileReportArtifact(decoded->artifact).ok());
}

TEST(HotReply, AByteFlippedInAnyRegionFailsTheFrameChecksum)
{
    const std::uint64_t key = 0x5eedull;
    const auto good = hotFrameBytes(key);
    const std::size_t artifact_size = reportArtifact().size();
    const std::size_t artifact_at = good.size() - 8 - artifact_size;
    const std::size_t payload_at = artifact_at + 16;
    const std::size_t trailer_at = artifact_at + artifact_size - 8;
    struct Region
    {
        const char *name;
        std::size_t begin;
        std::size_t end;
    };
    const Region regions[] = {
        {"reply fields", 16, artifact_at},
        {"artifact header", artifact_at, payload_at},
        {"artifact payload", payload_at, payload_at + 64},
        {"artifact trailer", trailer_at, trailer_at + 8},
        {"frame trailer", good.size() - 8, good.size()},
    };
    const std::string mismatch =
        "service frame checksum mismatch (corrupted in flight)";
    for (const Region &region : regions) {
        for (std::size_t at = region.begin; at < region.end; ++at) {
            SCOPED_TRACE(std::string(region.name) + " byte " +
                         std::to_string(at));
            auto bytes = good;
            bytes[at] ^= 0x40;
            auto frame = decodeFrame(bytes);
            ASSERT_FALSE(frame.ok());
            EXPECT_EQ(frame.status().message(), mismatch);
        }
        // The streamed read rejects it the same way.
        auto bytes = good;
        bytes[region.begin] ^= 0x40;
        int fds[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        std::thread writer([&] {
            (void)::send(fds[0], bytes.data(), bytes.size(),
                         MSG_NOSIGNAL);
        });
        auto frame = readFrame(fds[1]);
        writer.join();
        ::close(fds[0]);
        ::close(fds[1]);
        ASSERT_FALSE(frame.ok()) << region.name;
        EXPECT_EQ(frame.status().message(), mismatch) << region.name;
    }
}

TEST(HotReply, ResealedCorruptArtifactFailsTheReplyDecode)
{
    // A frame whose checksum holds but whose artifact does not reads
    // back; decoding the reply then fails with the artifact check.
    const std::size_t payload_at = 16 + 8;
    auto corrupt = hotReply(9);
    corrupt.reportArtifact[payload_at] ^= 0x01;
    auto frame = decodeFrame(encodeFrame(FrameType::CompileReply,
                                         encodeCompileReply(corrupt)));
    ASSERT_TRUE(frame.ok()) << frame.status().toString();
    auto reply = decodeCompileReply(*frame);
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().message(),
              "artifact checksum mismatch: payload corrupted");

    auto foreign = hotReply(9);
    foreign.reportArtifact[0] = 'X';
    frame = decodeFrame(encodeFrame(FrameType::CompileReply,
                                    encodeCompileReply(foreign)));
    ASSERT_TRUE(frame.ok()) << frame.status().toString();
    reply = decodeCompileReply(*frame);
    ASSERT_FALSE(reply.ok());
    EXPECT_EQ(reply.status().message(),
              "not a dcmbqc artifact (bad magic)");

    // The daemon side refuses to frame either artifact.
    auto framed = frameHotReply(9, corrupt.reportArtifact);
    ASSERT_FALSE(framed.ok());
    EXPECT_EQ(framed.status().message(),
              "artifact checksum mismatch: payload corrupted");
    EXPECT_FALSE(frameHotReply(9, foreign.reportArtifact).ok());
}

TEST(HotReply, ArbitraryPayloadsFramedAsCompileReplyReadBack)
{
    CompileReply odd;
    odd.status = Status::okStatus();
    odd.reportArtifact = somePayload();
    CompileReply failed;
    failed.status = Status::internal("no artifact");
    const std::vector<std::vector<std::uint8_t>> payloads = {
        somePayload(), {}, encodeCompileReply(odd),
        encodeCompileReply(failed)};
    for (const auto &payload : payloads) {
        const auto bytes = encodeFrame(FrameType::CompileReply, payload);
        auto frame = decodeFrame(bytes);
        ASSERT_TRUE(frame.ok()) << frame.status().toString();
        EXPECT_EQ(frame->payload, payload);

        int fds[2];
        ASSERT_EQ(::socketpair(AF_UNIX, SOCK_STREAM, 0, fds), 0);
        ASSERT_TRUE(
            writeFrame(fds[0], FrameType::CompileReply, payload).ok());
        auto read = readFrame(fds[1]);
        ::close(fds[0]);
        ::close(fds[1]);
        ASSERT_TRUE(read.ok()) << read.status().toString();
        EXPECT_EQ(read->payload, payload);
    }
    // Decoding the odd reply checks its artifact, which is none.
    auto decoded = decodeCompileReply(replyFrame(encodeCompileReply(odd)));
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().message(),
              "artifact truncated: 9 bytes, need at least 24");
    // A failed reply keeps its status and needs no artifact.
    auto frame = decodeFrame(encodeFrame(FrameType::CompileReply,
                                         encodeCompileReply(failed)));
    ASSERT_TRUE(frame.ok());
    auto view = decodeCompileReply(*frame);
    ASSERT_TRUE(view.ok()) << view.status().toString();
    EXPECT_EQ(view->status.message(), "no artifact");
}

// --- ProgressEvent ---------------------------------------------------------

TEST(ProgressEventCodec, RoundTrips)
{
    ProgressEvent event;
    event.label = "qft-5";
    event.pass = "Partition";
    event.finished = true;
    event.millis = 12.5;
    event.note = "k=2";
    auto decoded = decodeProgressEvent(encodeProgressEvent(event));
    ASSERT_TRUE(decoded.ok());
    EXPECT_EQ(decoded->label, event.label);
    EXPECT_EQ(decoded->pass, event.pass);
    EXPECT_TRUE(decoded->finished);
    EXPECT_DOUBLE_EQ(decoded->millis, 12.5);
    EXPECT_EQ(decoded->note, "k=2");
    EXPECT_FALSE(decoded->window);
}

TEST(ProgressEventCodec, RoundTripsWindowFields)
{
    ProgressEvent event;
    event.label = "graphstate-1000x1000";
    event.pass = "PatternStream";
    event.window = true;
    event.windowIndex = 41;
    event.windowSettled = 167936;
    event.windowTotal = 2998000;
    event.frontierLive = 1000;
    auto decoded = decodeProgressEvent(encodeProgressEvent(event));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_TRUE(decoded->window);
    EXPECT_EQ(decoded->windowIndex, 41u);
    EXPECT_EQ(decoded->windowSettled, 167936u);
    EXPECT_EQ(decoded->windowTotal, 2998000u);
    EXPECT_EQ(decoded->frontierLive, 1000u);
    EXPECT_EQ(encodeProgressEvent(*decoded),
              encodeProgressEvent(event));
}

// --- ServiceStats ----------------------------------------------------------

TEST(ServiceStatsCodec, RoundTripsAllFields)
{
    ServiceStats stats;
    stats.requestsTotal = 10;
    stats.compileRequests = 6;
    stats.executeRequests = 2;
    stats.statsRequests = 3;
    stats.pings = 1;
    stats.succeeded = 5;
    stats.failed = 1;
    stats.rejectedQueueFull = 2;
    stats.deadlineExceeded = 1;
    stats.cancelled = 1;
    stats.hotReplies = 3;
    stats.cacheHitReplies = 4;
    stats.inFlight = 2;
    stats.queueLimit = 16;
    stats.workers = 4;
    stats.draining = true;
    stats.uptimeMillis = 123456;
    stats.latencySamples = 9;
    stats.p50Millis = 1.5;
    stats.p99Millis = 20.25;
    stats.maxMillis = 21.0;
    stats.meanMillis = 3.75;
    stats.cache.hits = 7;
    stats.cache.misses = 2;
    stats.cache.evictions = 1;
    stats.cache.diskHits = 3;
    stats.cache.diskWrites = 4;
    stats.cacheEntries = 5;
    ServiceStats::StageAggregate stage;
    stage.pass = "ScheduleList";
    stage.count = 6;
    stage.totalMillis = 42.0;
    stage.maxMillis = 9.5;
    stats.stages.push_back(stage);

    auto decoded = decodeServiceStats(encodeServiceStats(stats));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->requestsTotal, 10u);
    EXPECT_EQ(decoded->compileRequests, 6u);
    EXPECT_EQ(decoded->executeRequests, 2u);
    EXPECT_EQ(decoded->rejectedQueueFull, 2u);
    EXPECT_EQ(decoded->hotReplies, 3u);
    EXPECT_EQ(decoded->cacheHitReplies, 4u);
    EXPECT_TRUE(decoded->draining);
    EXPECT_EQ(decoded->queueLimit, 16);
    EXPECT_DOUBLE_EQ(decoded->p99Millis, 20.25);
    EXPECT_EQ(decoded->cache.diskWrites, 4u);
    ASSERT_EQ(decoded->stages.size(), 1u);
    EXPECT_EQ(decoded->stages[0].pass, "ScheduleList");
    EXPECT_EQ(decoded->stages[0].count, 6u);
    EXPECT_DOUBLE_EQ(decoded->stages[0].totalMillis, 42.0);
    // Re-encoding reproduces the exact bytes.
    EXPECT_EQ(encodeServiceStats(*decoded), encodeServiceStats(stats));
}

TEST(ServiceStatsCodec, JsonRenderingCarriesKeySections)
{
    ServiceStats stats;
    stats.hotReplies = 3;
    ServiceStats::StageAggregate stage;
    stage.pass = "Partition";
    stats.stages.push_back(stage);
    const std::string json = toJson(stats);
    EXPECT_NE(json.find("\"requests\""), std::string::npos);
    EXPECT_NE(json.find("\"outcomes\""), std::string::npos);
    EXPECT_NE(json.find("\"hotReplies\": 3"), std::string::npos);
    EXPECT_NE(json.find("\"latencyMillis\""), std::string::npos);
    EXPECT_NE(json.find("\"cache\""), std::string::npos);
    EXPECT_NE(json.find("\"Partition\""), std::string::npos);
}

} // namespace
} // namespace dcmbqc

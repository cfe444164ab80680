/**
 * @file
 * Robustness: no input may abort the process.
 *
 * Artifact part: the payload of every golden fixture is mutated (a
 * bit flip, a byte set to 0x00 or 0xff, a truncation, an appended
 * byte), each mutation is re-sealed with a valid checksum so it gets
 * past the envelope, and the fixture's own decoder reads it. The
 * only allowed outcomes are a decoded value or a non-OK Status.
 *
 * Config part: each floating-point field of the partitioner and
 * BDIR config is set to NaN, +-infinity, 0, -1 and 1e300, and a
 * QFT-8 compile on 2 QPUs runs with it. The only allowed outcomes
 * are a compiled report or a non-OK Status.
 *
 * Exec part: each floating-point field of the execution loss model
 * and of every noise mechanism is set to NaN and +-infinity, and
 * QFT-8 on 2 QPUs runs on `mc-loss` with it. Every case must come
 * back as INVALID_CONFIG naming the field; a result computed from a
 * non-finite parameter is a confident wrong answer.
 *
 * Resource part: work that must not grow with a request's size runs
 * in a forked child under RLIMIT_AS, a little above the child's
 * current address space. `mc-loss` samples 100 M shots, and
 * `statevector`, `stabilizer` and `schedule` 3 M shots each, without
 * a per-shot buffer, a ThreadPool asked for 600 workers runs its
 * jobs on the threads the OS grants, and a streamed 300x300 graph
 * state's report encodes within its artifact's size + 8 MiB,
 * allocating no more than the artifact + 1 MiB.
 *
 * Frame part: a real hot CompileReply frame, as the daemon frames
 * it, is mutated the same ways, either as corrupted in flight, or
 * re-sealed with a valid frame checksum, or with valid artifact and
 * frame checksums. Each case goes through `decodeFrame` and the
 * client's reply decode; the only allowed outcomes are a decoded
 * report or a non-OK Status.
 *
 * Each fixture's cases, each frame mode's cases, and each config,
 * exec and resource case, run in a forked child, so an abort or a
 * crash fails the test and names the case instead of killing the
 * test runner.
 */

#include <gtest/gtest.h>

#include <malloc.h>
#include <sys/resource.h>
#include <sys/wait.h>
#include <unistd.h>

#include <algorithm>
#include <atomic>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <limits>
#include <new>
#include <random>
#include <sstream>
#include <string>
#include <vector>

#include "api/api.hh"
#include "circuit/generators.hh"
#include "circuit/huge_generators.hh"
#include "common/thread_pool.hh"
#include "serialize/artifact.hh"
#include "serialize/codecs.hh"
#include "service/client.hh"
#include "service/protocol.hh"

#ifndef DCMBQC_GOLDEN_DIR
#define DCMBQC_GOLDEN_DIR "tests/golden"
#endif

// ASan and TSan reserve terabytes of shadow address space at start-up,
// so no RLIMIT_AS cap near the process's real size can hold under
// them; the resource cases skip there.
#if defined(__SANITIZE_ADDRESS__) || defined(__SANITIZE_THREAD__)
#define DCMBQC_SHADOW_SANITIZER 1
#elif defined(__has_feature)
#if __has_feature(address_sanitizer) || __has_feature(thread_sanitizer)
#define DCMBQC_SHADOW_SANITIZER 1
#endif
#endif

#ifndef DCMBQC_SHADOW_SANITIZER
namespace
{

/**
 * Bytes live through operator new, and their high-water mark since
 * the last reset. glibc serves a forked child's requests from memory
 * the parent already mapped (freed chunks, other threads' arena
 * reservations), so RLIMIT_AS alone misses an allocation that fits
 * there; a resource case that bounds what one call allocates reads
 * these instead.
 */
std::atomic<std::size_t> liveHeapBytes{0};
std::atomic<std::size_t> peakHeapBytes{0};

} // namespace

void *
operator new(std::size_t size)
{
    void *block = std::malloc(size > 0 ? size : 1);
    if (!block)
        throw std::bad_alloc();
    const std::size_t bytes = ::malloc_usable_size(block);
    const std::size_t live =
        liveHeapBytes.fetch_add(bytes, std::memory_order_relaxed) + bytes;
    std::size_t peak = peakHeapBytes.load(std::memory_order_relaxed);
    while (live > peak &&
           !peakHeapBytes.compare_exchange_weak(peak, live,
                                                std::memory_order_relaxed)) {
    }
    return block;
}

void
operator delete(void *block) noexcept
{
    if (!block)
        return;
    liveHeapBytes.fetch_sub(::malloc_usable_size(block),
                            std::memory_order_relaxed);
    std::free(block);
}

void
operator delete(void *block, std::size_t) noexcept
{
    ::operator delete(block);
}
#endif

namespace dcmbqc
{
namespace
{

constexpr int kCasesPerFixture = 3000;

/** One payload mutation. */
struct Mutation
{
    enum class Kind
    {
        FlipBit,
        SetZero,
        SetOnes,
        Truncate,
        Append,
    };

    Kind kind = Kind::FlipBit;
    /** Byte to change, or the length to truncate to. */
    std::size_t offset = 0;
    /** Bit index (mod 8) to flip, or the byte to append. */
    std::uint8_t value = 0;
};

/** Mutation `index` of a fixture, from its own seeded stream. */
Mutation
drawMutation(std::uint64_t fixture_seed, int index, std::size_t size)
{
    std::mt19937_64 rng(fixture_seed * 1000003u +
                        static_cast<std::uint64_t>(index));
    Mutation m;
    const std::uint64_t span = std::max<std::size_t>(size, 1);
    m.kind = static_cast<Mutation::Kind>(rng() % 5);
    m.offset = static_cast<std::size_t>(rng() % span);
    m.value = static_cast<std::uint8_t>(rng());
    if (size == 0)
        m.kind = Mutation::Kind::Append;
    return m;
}

std::vector<std::uint8_t>
applyMutation(std::vector<std::uint8_t> payload, const Mutation &m)
{
    switch (m.kind) {
      case Mutation::Kind::FlipBit:
        payload[m.offset] ^=
            static_cast<std::uint8_t>(1u << (m.value % 8));
        break;
      case Mutation::Kind::SetZero:
        payload[m.offset] = 0x00;
        break;
      case Mutation::Kind::SetOnes:
        payload[m.offset] = 0xff;
        break;
      case Mutation::Kind::Truncate:
        payload.resize(m.offset);
        break;
      case Mutation::Kind::Append:
        payload.push_back(m.value);
        break;
    }
    return payload;
}

std::string
describe(const Mutation &m)
{
    const std::string at = std::to_string(m.offset);
    switch (m.kind) {
      case Mutation::Kind::FlipBit:
        return "flip bit " + std::to_string(m.value % 8) +
            " of payload byte " + at;
      case Mutation::Kind::SetZero:
        return "set payload byte " + at + " to 0x00";
      case Mutation::Kind::SetOnes:
        return "set payload byte " + at + " to 0xff";
      case Mutation::Kind::Truncate:
        return "truncate the payload to " + at + " bytes";
      case Mutation::Kind::Append:
        return "append byte " + std::to_string(m.value);
    }
    return "?";
}

template <typename T>
Status
statusOf(const Expected<T> &decoded)
{
    return decoded.ok() ? Status::okStatus() : decoded.status();
}

/** Decode with the decoder of the artifact's kind. */
Status
decodeAs(ArtifactKind kind, const std::vector<std::uint8_t> &bytes)
{
    switch (kind) {
      case ArtifactKind::Circuit:
        return statusOf(decodeCircuitArtifact(bytes));
      case ArtifactKind::Graph:
        return statusOf(decodeGraphArtifact(bytes));
      case ArtifactKind::Digraph:
        return statusOf(decodeDigraphArtifact(bytes));
      case ArtifactKind::Pattern:
        return statusOf(decodePatternArtifact(bytes));
      case ArtifactKind::Config:
        return statusOf(decodeConfigArtifact(bytes));
      case ArtifactKind::LocalSchedule:
        return statusOf(decodeLocalScheduleArtifact(bytes));
      case ArtifactKind::Schedule:
        return statusOf(decodeScheduleArtifact(bytes));
      case ArtifactKind::CompileReport:
        return statusOf(decodeCompileReportArtifact(bytes));
      case ArtifactKind::ExecResult:
        return statusOf(decodeExecResultArtifact(bytes));
      case ArtifactKind::NoiseConfig:
        return statusOf(decodeNoiseConfigArtifact(bytes));
    }
    return Status::internal("unknown artifact kind");
}

std::vector<std::filesystem::path>
goldenFixtures()
{
    std::vector<std::filesystem::path> files;
    for (const auto &entry :
         std::filesystem::directory_iterator(DCMBQC_GOLDEN_DIR))
        if (entry.path().extension() == ".dcmb")
            files.push_back(entry.path());
    std::sort(files.begin(), files.end());
    return files;
}

/** What the child reports before each case, and once at the end. */
struct Progress
{
    std::int32_t index;
    std::int32_t decoded;
};

/** Child exit code: a re-sealed mutation failed the envelope check. */
constexpr int kEnvelopeRejected = 2;

/**
 * Child body: run every case of one fixture, reporting progress on
 * `fd`. Never returns.
 */
[[noreturn]] void
runCases(int fd, ArtifactKind kind,
         const std::vector<std::uint8_t> &payload, std::uint64_t seed)
{
    Progress progress{0, 0};
    for (int i = 0; i < kCasesPerFixture; ++i) {
        progress.index = i;
        if (::write(fd, &progress, sizeof(progress)) !=
            static_cast<ssize_t>(sizeof(progress)))
            ::_exit(1);
        const auto bytes = sealArtifact(
            kind,
            applyMutation(payload,
                          drawMutation(seed, i, payload.size())));
        if (!openArtifact(bytes).ok())
            ::_exit(kEnvelopeRejected);
        if (decodeAs(kind, bytes).ok())
            ++progress.decoded;
    }
    progress.index = kCasesPerFixture;
    if (::write(fd, &progress, sizeof(progress)) !=
        static_cast<ssize_t>(sizeof(progress)))
        ::_exit(1);
    ::_exit(0);
}

/**
 * Fork a child running `body` on the write end of a pipe, where it
 * reports a `Progress` record before each case and once at the end,
 * then exits. Returns how the child ended ("" when it exited 0) and
 * leaves its last record in `*last`.
 */
std::string
runCaseChild(const std::function<void(int)> &body, Progress *last)
{
    int fds[2];
    if (::pipe(fds) != 0)
        return "could not get a pipe";
    std::fflush(nullptr);
    const pid_t child = ::fork();
    if (child < 0)
        return "could not fork";
    if (child == 0) {
        ::close(fds[0]);
        body(fds[1]);
        ::_exit(1);
    }
    ::close(fds[1]);
    Progress record;
    while (::read(fds[0], &record, sizeof(record)) ==
           static_cast<ssize_t>(sizeof(record)))
        *last = record;
    ::close(fds[0]);
    int status = 0;
    if (::waitpid(child, &status, 0) != child)
        return "could not be waited for";
    if (WIFSIGNALED(status))
        return "was killed by signal " + std::to_string(WTERMSIG(status));
    if (WEXITSTATUS(status) == kEnvelopeRejected)
        return "exited with code " + std::to_string(kEnvelopeRejected) +
            " (a re-sealed mutation failed the envelope)";
    if (WEXITSTATUS(status) != 0)
        return "exited with code " + std::to_string(WEXITSTATUS(status));
    return "";
}

TEST(ArtifactRobustness, MutatedFixturesDecodeOrFailWithAStatus)
{
    const auto fixtures = goldenFixtures();
    ASSERT_GE(fixtures.size(), 12u)
        << "golden corpus not found under " << DCMBQC_GOLDEN_DIR;

    for (const auto &path : fixtures) {
        const std::string name = path.filename().string();
        SCOPED_TRACE(name);
        // Seeded by name, so adding a fixture moves no other case.
        const std::uint64_t seed = fnv1a64(
            reinterpret_cast<const std::uint8_t *>(name.data()),
            name.size());
        auto bytes = loadArtifactFile(path.string());
        ASSERT_TRUE(bytes.ok()) << bytes.status().toString();
        auto view = openArtifact(*bytes);
        ASSERT_TRUE(view.ok()) << view.status().toString();
        const ArtifactKind kind = view->kind;
        const std::vector<std::uint8_t> payload(
            view->payload, view->payload + view->payloadSize);
        ASSERT_TRUE(decodeAs(kind, *bytes).ok());

        Progress last{-1, 0};
        const std::string how = runCaseChild(
            [&](int fd) { runCases(fd, kind, payload, seed); }, &last);
        if (!how.empty()) {
            const std::string mutation =
                last.index >= 0 && last.index < kCasesPerFixture
                ? describe(drawMutation(seed, last.index,
                                        payload.size()))
                : "no case";
            ADD_FAILURE() << name << ": the decoder child " << how
                          << " on case " << last.index << " ("
                          << mutation << ")";
            continue;
        }
        EXPECT_EQ(last.index, kCasesPerFixture);
        std::printf("[ robust   ] %-22s %s: %d mutations, %d decoded, "
                    "%d rejected\n",
                    name.c_str(), artifactKindName(kind),
                    kCasesPerFixture, last.decoded,
                    kCasesPerFixture - last.decoded);
    }
}

constexpr int kFrameCasesPerMode = 1000;

/** The checksums a mutated hot-reply frame is re-sealed with. */
enum class Reseal
{
    /** None: the bytes as corrupted in flight. */
    None,
    /** The frame's: the reply fields and the artifact's envelope. */
    Frame,
    /** The artifact's and the frame's: the report's decoder. */
    ArtifactAndFrame,
};

const char *
resealName(Reseal reseal)
{
    switch (reseal) {
      case Reseal::None: return "none";
      case Reseal::Frame: return "frame";
      case Reseal::ArtifactAndFrame: return "artifact+frame";
    }
    return "?";
}

/** The hot reply of `artifact`, framed as the daemon frames it. */
std::vector<std::uint8_t>
hotReplyFrame(const std::vector<std::uint8_t> &artifact)
{
    auto frame = frameHotReply(0x5eedull, artifact);
    if (!frame.ok())
        return {};
    std::vector<std::uint8_t> bytes = frame->head;
    bytes.insert(bytes.end(), frame->artifact,
                 frame->artifact + frame->artifactSize);
    bytes.insert(bytes.end(), frame->trailer,
                 frame->trailer + sizeof(frame->trailer));
    return bytes;
}

/** Case `index` of a mode: one mutation, re-sealed per `reseal`. */
std::vector<std::uint8_t>
mutatedReplyFrame(const std::vector<std::uint8_t> &artifact,
                  Reseal reseal, std::uint64_t seed, int index)
{
    if (reseal == Reseal::None) {
        const auto bytes = hotReplyFrame(artifact);
        return applyMutation(bytes,
                             drawMutation(seed, index, bytes.size()));
    }
    CompileReply reply;
    reply.status = Status::okStatus();
    reply.cacheHit = true;
    reply.hotServed = true;
    reply.cacheKey = 0x5eedull;
    reply.reportArtifact = artifact;
    if (reseal == Reseal::ArtifactAndFrame) {
        auto view = openArtifact(artifact);
        const std::vector<std::uint8_t> payload(
            view->payload, view->payload + view->payloadSize);
        reply.reportArtifact = sealArtifact(
            ArtifactKind::CompileReport,
            applyMutation(payload,
                          drawMutation(seed, index, payload.size())));
        return encodeFrame(FrameType::CompileReply,
                           encodeCompileReply(reply));
    }
    const auto payload = encodeCompileReply(reply);
    return encodeFrame(
        FrameType::CompileReply,
        applyMutation(payload, drawMutation(seed, index, payload.size())));
}

/**
 * Child body: decode every case of one mode as the client does, the
 * frame and then the reply, reporting progress on `fd`. A re-sealed
 * case must get past the checksums it was sealed with.
 */
[[noreturn]] void
runFrameCases(int fd, const std::vector<std::uint8_t> &artifact,
              Reseal reseal, std::uint64_t seed)
{
    Progress progress{0, 0};
    for (int i = 0; i < kFrameCasesPerMode; ++i) {
        progress.index = i;
        if (::write(fd, &progress, sizeof(progress)) !=
            static_cast<ssize_t>(sizeof(progress)))
            ::_exit(1);
        auto frame =
            decodeFrame(mutatedReplyFrame(artifact, reseal, seed, i));
        const bool sealed = reseal != Reseal::None;
        if (sealed && !frame.ok())
            ::_exit(kEnvelopeRejected);
        if (!frame.ok())
            continue;
        if (reseal == Reseal::ArtifactAndFrame &&
            !(frame->artifact && frame->artifact->ok()))
            ::_exit(kEnvelopeRejected);
        if (decodeReplyFrame(*frame).ok())
            ++progress.decoded;
    }
    progress.index = kFrameCasesPerMode;
    if (::write(fd, &progress, sizeof(progress)) !=
        static_cast<ssize_t>(sizeof(progress)))
        ::_exit(1);
    ::_exit(0);
}

TEST(FrameRobustness, MutatedHotRepliesDecodeOrFailWithAStatus)
{
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(1));
    auto report =
        driver.compile(CompileRequest::fromCircuit(makeQft(8), "qft-8"));
    ASSERT_TRUE(report.ok()) << report.status().toString();
    const auto artifact = encodeCompileReportArtifact(*report);
    auto frame = decodeFrame(hotReplyFrame(artifact));
    ASSERT_TRUE(frame.ok()) << frame.status().toString();
    ASSERT_TRUE(decodeReplyFrame(*frame).ok());

    for (const Reseal reseal :
         {Reseal::None, Reseal::Frame, Reseal::ArtifactAndFrame}) {
        const std::string name =
            std::string("hot-reply/") + resealName(reseal);
        SCOPED_TRACE(name);
        const std::uint64_t seed = fnv1a64(
            reinterpret_cast<const std::uint8_t *>(name.data()),
            name.size());
        Progress last{-1, 0};
        const std::string how = runCaseChild(
            [&](int fd) { runFrameCases(fd, artifact, reseal, seed); },
            &last);
        if (!how.empty()) {
            ADD_FAILURE() << name << ": the decoder child " << how
                          << " on case " << last.index;
            continue;
        }
        EXPECT_EQ(last.index, kFrameCasesPerMode);
        std::printf("[ robust   ] %-22s compile-reply: %d mutations, "
                    "%d decoded, %d rejected\n",
                    name.c_str(), kFrameCasesPerMode, last.decoded,
                    kFrameCasesPerMode - last.decoded);
    }
}

/** One config case: the fields it sets, with their values. */
struct ConfigCase
{
    std::string name;
    CompileOptions options;
};

std::vector<ConfigCase>
configCases()
{
    using Setter = CompileOptions &(CompileOptions::*)(double);
    const std::pair<const char *, Setter> fields[] = {
        {"epsilonQ", &CompileOptions::epsilonQ},
        {"alphaMax", &CompileOptions::alphaMax},
        {"gamma", &CompileOptions::gamma},
        {"bdirInitialTemperature", &CompileOptions::bdirInitialTemperature},
        {"bdirCoolingRate", &CompileOptions::bdirCoolingRate},
    };
    const double values[] = {std::numeric_limits<double>::quiet_NaN(),
                             HUGE_VAL, -HUGE_VAL, 0.0, -1.0, 1e300};
    const auto base = [] { return CompileOptions().numQpus(2); };

    std::vector<ConfigCase> cases;
    for (const auto &[field, set] : fields) {
        for (const double value : values) {
            std::ostringstream name;
            name << field << " = " << value;
            ConfigCase c{name.str(), base()};
            (c.options.*set)(value);
            cases.push_back(std::move(c));
        }
    }
    // The search's second probe runs the partitioner at alpha = 1e300.
    cases.push_back({"alphaMax = gamma = 1e300",
                     base().alphaMax(1e300).gamma(1e300)});
    return cases;
}

/** Child exit code: the compile returned a non-OK Status. */
constexpr int kCompileRejected = 3;

TEST(ConfigRobustness, ExtremeFloatingFieldsCompileOrFailWithAStatus)
{
    const CompileRequest request =
        CompileRequest::fromCircuit(makeQft(8), "qft-8");
    int compiled = 0;
    int rejected = 0;
    for (const ConfigCase &c : configCases()) {
        std::fflush(nullptr);
        const pid_t child = ::fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
            const auto report = CompilerDriver(c.options).compile(request);
            ::_exit(report.ok() ? 0 : kCompileRejected);
        }
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0) {
            ++compiled;
        } else if (WIFEXITED(status) &&
                   WEXITSTATUS(status) == kCompileRejected) {
            ++rejected;
        } else {
            ADD_FAILURE() << c.name << ": the compile child "
                          << (WIFSIGNALED(status)
                                  ? "was killed by signal " +
                                      std::to_string(WTERMSIG(status))
                                  : "exited with code " +
                                      std::to_string(WEXITSTATUS(status)));
        }
    }
    std::printf("[ robust   ] config: %d cases, %d compiled, %d rejected\n",
                compiled + rejected, compiled, rejected);
}

/** One exec case: the options it runs with and the field it breaks. */
struct ExecCase
{
    std::string name;
    std::string field;
    ExecOptions options;
};

std::vector<ExecCase>
execCases()
{
    const double values[] = {std::numeric_limits<double>::quiet_NaN(),
                             HUGE_VAL, -HUGE_VAL};
    const auto base = [] {
        ExecOptions options;
        options.backend = "mc-loss";
        options.shots = 16;
        return options;
    };
    const std::pair<const char *, double LossModel::*> loss_fields[] = {
        {"lossModel.attenuationDbPerKm", &LossModel::attenuationDbPerKm},
        {"lossModel.cyclePeriodNs", &LossModel::cyclePeriodNs},
        {"lossModel.speedFraction", &LossModel::speedFraction},
    };
    const std::pair<const char *, const char *> noise_fields[] = {
        {"delay-line", "attenuation_db_per_km"},
        {"delay-line", "cycle_period_ns"},
        {"delay-line", "speed_fraction"},
        {"connector", "insertion_loss_db"},
        {"connector", "attenuation_db_per_km"},
        {"connector", "cycle_period_ns"},
        {"connector", "speed_fraction"},
        {"fusion", "failure_rate"},
        {"fusion", "remote_only"},
        {"correlated-burst", "burst_rate"},
        {"correlated-burst", "burst_width"},
        {"depolarizing", "probability"},
    };

    std::vector<ExecCase> cases;
    for (const double value : values) {
        for (const auto &[field, member] : loss_fields) {
            std::ostringstream name;
            name << field << " = " << value;
            ExecCase c{name.str(), field, base()};
            c.options.lossModel.*member = value;
            cases.push_back(std::move(c));
        }
        for (const auto &[mechanism, param] : noise_fields) {
            std::ostringstream name;
            name << mechanism << "." << param << " = " << value;
            ExecCase c{name.str(), param, base()};
            c.options.noise = NoiseConfig().add(mechanism, {{param, value}});
            cases.push_back(std::move(c));
        }
    }
    return cases;
}

/** Child exit codes: the run was accepted, or failed another way. */
constexpr int kExecAccepted = 4;
constexpr int kExecOtherStatus = 5;

TEST(ExecRobustness, NonFiniteExecAndNoiseFieldsAreInvalidConfig)
{
    const CompileRequest request =
        CompileRequest::fromCircuit(makeQft(8), "qft-8");
    const CompilerDriver driver(CompileOptions().numQpus(2));
    for (const ExecCase &c : execCases()) {
        std::fflush(nullptr);
        const pid_t child = ::fork();
        ASSERT_GE(child, 0);
        if (child == 0) {
            const auto report = driver.compileAndExecute(request, c.options);
            if (report.ok())
                ::_exit(kExecAccepted);
            const Status &status = report.status();
            const bool named =
                status.code() == StatusCode::InvalidConfig &&
                status.message().find(c.field) != std::string::npos;
            ::_exit(named ? 0 : kExecOtherStatus);
        }
        int status = 0;
        ASSERT_EQ(::waitpid(child, &status, 0), child);
        if (WIFEXITED(status) && WEXITSTATUS(status) == 0)
            continue;
        std::string how;
        if (WIFSIGNALED(status))
            how = "was killed by signal " + std::to_string(WTERMSIG(status));
        else if (WEXITSTATUS(status) == kExecAccepted)
            how = "returned a result";
        else if (WEXITSTATUS(status) == kExecOtherStatus)
            how = "failed without an INVALID_CONFIG naming " + c.field;
        else
            how = "exited with code " + std::to_string(WEXITSTATUS(status));
        ADD_FAILURE() << c.name << ": the exec child " << how;
    }
}

/** This process's address-space size (VmSize) in bytes; 0 if unknown. */
std::uint64_t
vmSizeBytes()
{
    std::ifstream status("/proc/self/status");
    std::string line;
    while (std::getline(status, line))
        if (line.rfind("VmSize:", 0) == 0)
            return std::stoull(line.substr(7)) * 1024; // "... kB"
    return 0;
}

/** Child exit codes: the cap could not be set; the body threw. */
constexpr int kCapNotSet = 6;
constexpr int kBodyThrew = 7;

/**
 * Run `body` in a forked child whose address space may grow by
 * `headroom` bytes over its size at the fork; the child exits with
 * the body's return value. Returns the "how it ended" text, empty
 * when the child exited 0.
 */
std::string
runCapped(std::uint64_t headroom, const std::function<int()> &body)
{
    std::fflush(nullptr);
    const pid_t child = ::fork();
    if (child < 0)
        return "could not fork";
    if (child == 0) {
        const std::uint64_t size = vmSizeBytes();
        rlimit cap{};
        if (size == 0 || ::getrlimit(RLIMIT_AS, &cap) != 0)
            ::_exit(kCapNotSet);
        cap.rlim_cur = static_cast<rlim_t>(size + headroom);
        if (::setrlimit(RLIMIT_AS, &cap) != 0)
            ::_exit(kCapNotSet);
        // An escaping exception would abort the CLI or the daemon; in
        // here it must not reach gtest, which would run on in the
        // child.
        int code = kBodyThrew;
        try {
            code = body();
        } catch (...) {
        }
        ::_exit(code);
    }
    int status = 0;
    if (::waitpid(child, &status, 0) != child)
        return "could not be waited for";
    if (WIFSIGNALED(status))
        return "was killed by signal " + std::to_string(WTERMSIG(status));
    if (WEXITSTATUS(status) == kCapNotSet)
        return "could not set RLIMIT_AS";
    if (WEXITSTATUS(status) == kBodyThrew)
        return "threw an exception";
    if (WEXITSTATUS(status) != 0)
        return "exited with code " + std::to_string(WEXITSTATUS(status));
    return "";
}

constexpr std::uint64_t kMiB = std::uint64_t(1) << 20;

TEST(ResourceRobustness, HugeShotCountRunsInBoundedMemory)
{
#ifdef DCMBQC_SHADOW_SANITIZER
    GTEST_SKIP() << "RLIMIT_AS cannot hold a sanitizer's shadow memory";
#endif
    // One int32 per shot would take 400 MB, beyond the cap.
    constexpr int kShots = 100000000;
    const std::string how = runCapped(256 * kMiB, [] {
        ExecOptions options;
        options.backend = "mc-loss";
        options.shots = kShots;
        const auto report =
            CompilerDriver(CompileOptions().numQpus(2))
                .compileAndExecute(
                    CompileRequest::fromCircuit(makeQft(2), "qft-2"),
                    options);
        if (!report.ok())
            return kExecOtherStatus;
        const ExecResult &result = report->executions.at(0);
        return result.completedShots + result.lostShots == kShots &&
                result.lostShots > 0
            ? 0
            : kExecAccepted;
    });
    EXPECT_EQ(how, "") << "the mc-loss child " << how;
}

TEST(ResourceRobustness, StatevectorShotCountRunsInBoundedMemory)
{
#ifdef DCMBQC_SHADOW_SANITIZER
    GTEST_SKIP() << "RLIMIT_AS cannot hold a sanitizer's shadow memory";
#endif
    // An outcome string and a loss count per shot would take 36 B a
    // shot, 108 MB here, beyond the cap. One thread keeps the shot
    // loop on the calling thread.
    constexpr int kShots = 3000000;
    const std::string how = runCapped(64 * kMiB, [] {
        Circuit circuit(1, "h");
        circuit.h(0);
        ExecOptions options;
        options.backend = "statevector";
        options.shots = kShots;
        options.numThreads = 1;
        const auto result = executeProgram(
            ExecProgram::fromCircuit(circuit, "h"), options);
        if (!result.ok())
            return kExecOtherStatus;
        std::int64_t counted = 0;
        for (const auto &entry : result->counts)
            counted += entry.second;
        return counted == kShots ? 0 : kExecAccepted;
    });
    EXPECT_EQ(how, "") << "the statevector child " << how;
}

/**
 * 3 M one-thread shots of a two-qubit Clifford program on a replay
 * backend within VmSize + 64 MiB: the empty string when they ran.
 * A bitstring, a random-output count and a loss count per shot
 * would take 40 B a shot, 120 MB here, beyond the cap.
 */
std::string
replayShotsUnderCap(const char *backend)
{
    constexpr int kShots = 3000000;
    return runCapped(64 * kMiB, [backend] {
        ExecOptions options;
        options.backend = backend;
        options.shots = kShots;
        options.numThreads = 1;
        const auto report =
            CompilerDriver(CompileOptions().numQpus(2))
                .compileAndExecute(
                    CompileRequest::fromCircuit(
                        makeRandomCliffordCircuit(2, 8, 3), "clifford-2"),
                    options);
        if (!report.ok())
            return kExecOtherStatus;
        std::int64_t counted = 0;
        for (const auto &entry : report->executions.at(0).counts)
            counted += entry.second;
        return counted == kShots ? 0 : kExecAccepted;
    });
}

TEST(ResourceRobustness, StabilizerShotCountRunsInBoundedMemory)
{
#ifdef DCMBQC_SHADOW_SANITIZER
    GTEST_SKIP() << "RLIMIT_AS cannot hold a sanitizer's shadow memory";
#endif
    const std::string how = replayShotsUnderCap("stabilizer");
    EXPECT_EQ(how, "") << "the stabilizer child " << how;
}

TEST(ResourceRobustness, ScheduleShotCountRunsInBoundedMemory)
{
#ifdef DCMBQC_SHADOW_SANITIZER
    GTEST_SKIP() << "RLIMIT_AS cannot hold a sanitizer's shadow memory";
#endif
    const std::string how = replayShotsUnderCap("schedule");
    EXPECT_EQ(how, "") << "the schedule child " << how;
}

TEST(ResourceRobustness, StreamedReportEncodesWithinOneArtifact)
{
#ifdef DCMBQC_SHADOW_SANITIZER
    GTEST_SKIP() << "RLIMIT_AS cannot hold a sanitizer's shadow memory";
#else
    // The streamed 300x300 graph state's report encodes to about
    // 11 MiB. An encode that grew its payload by doubling and then
    // copied it into the envelope would allocate four to five times
    // that; written once into a buffer of its exact size, it
    // allocates one artifact (and at most 1 MiB of encoder scratch).
    const CompilerDriver driver(CompileOptions()
                                    .numQpus(4)
                                    .gridSize(7)
                                    .useBdir(false)
                                    .window(4096)
                                    .seed(1));
    const auto report = driver.compile(CompileRequest::fromCircuitStream(
        makeGraphStateStream(300, 300), "graphstate-300"));
    ASSERT_TRUE(report.ok()) << report.status().toString();
    const std::vector<std::uint8_t> expected =
        encodeCompileReportArtifact(*report);
    const std::size_t bound = expected.size() + kMiB;
    const std::string how = runCapped(expected.size() + 8 * kMiB, [&] {
        const std::size_t before = liveHeapBytes.load();
        peakHeapBytes.store(before);
        if (encodeCompileReportArtifact(*report) != expected)
            return 1;
        return peakHeapBytes.load() - before <= bound ? 0 : 2;
    });
    EXPECT_EQ(how, "") << "the encoding child " << how
                       << " (1: other bytes; 2: allocated more than "
                       << bound << " bytes)";
#endif
}

TEST(ResourceRobustness, ThreadPoolRunsOnTheThreadsTheOsGrants)
{
#ifdef DCMBQC_SHADOW_SANITIZER
    GTEST_SKIP() << "RLIMIT_AS cannot hold a sanitizer's shadow memory";
#endif
    // 600 thread stacks cannot fit in 64 MiB, so most are refused.
    constexpr int kJobs = 600;
    const std::string how = runCapped(64 * kMiB, [] {
        std::vector<int> slots(kJobs, -1);
        {
            ThreadPool pool(kJobs);
            for (int i = 0; i < kJobs; ++i)
                pool.submit([&slots, i] { slots[i] = i; });
            pool.wait();
        }
        for (int i = 0; i < kJobs; ++i)
            if (slots[i] != i)
                return kExecOtherStatus;
        return 0;
    });
    EXPECT_EQ(how, "") << "the thread-pool child " << how;
}

} // namespace
} // namespace dcmbqc

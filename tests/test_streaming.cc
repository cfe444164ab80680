/**
 * @file
 * Tests of the streaming compilation core: the settled-prefix pattern
 * builder and the list scheduler give the same bytes for every window
 * size (window 0, one window over the whole input, is the oracle),
 * window checkpoints fire and abort as documented, per-QPU local
 * compiles are worker-count invariant (one worker is the oracle),
 * stream-entry requests match their materialized circuits through
 * the driver and alias them in the cache, window validation goes
 * through the Status channel, and mid-stream cancellation leaves no
 * partial cache entries.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <memory>
#include <vector>

#include "api/api.hh"
#include "api/cancellation.hh"
#include "cache/cache_key.hh"
#include "cache/compile_cache.hh"
#include "circuit/circuit_stream.hh"
#include "circuit/generators.hh"
#include "circuit/huge_generators.hh"
#include "circuit/transpile.hh"
#include "core/list_scheduler.hh"
#include "core/lsp_builder.hh"
#include "mbqc/dependency.hh"
#include "mbqc/pattern_builder.hh"
#include "serialize/binary.hh"
#include "serialize/codecs.hh"

namespace dcmbqc
{
namespace
{

const std::vector<std::uint32_t> &
windowCorpus()
{
    // 0 = one window over the whole input (the "infinite" window).
    static const std::vector<std::uint32_t> windows = {0, 1, 64,
                                                       4096};
    return windows;
}

std::vector<Circuit>
circuitCorpus()
{
    std::vector<Circuit> corpus;
    corpus.push_back(makeQft(8));
    corpus.push_back(makeQaoaMaxcut(10, 7));
    corpus.push_back(makeVqe(6, 2, 11));
    corpus.push_back(makeRandomCliffordTCircuit(7, 300, 5));
    corpus.push_back(makeGraphStateStream(4, 5)->materialize());
    corpus.push_back(makeDeepQaoaStream(8, 3)->materialize());
    corpus.push_back(makeRandomCliffordTStream(6, 200)->materialize());
    return corpus;
}

// --- Pattern builder: window invariance -----------------------------------

TEST(StreamingPatternBuilder, BitIdenticalForEveryWindowSize)
{
    for (const Circuit &circuit : circuitCorpus()) {
        // All three entry points feed the same builder; only the
        // chunking of the input differs.
        const auto oracle =
            encodePatternArtifact(buildPattern(transpileToJCz(circuit)));
        EXPECT_EQ(encodePatternArtifact(buildPattern(circuit)), oracle);
        for (std::uint32_t window : windowCorpus()) {
            SCOPED_TRACE(circuit.name() + " window=" +
                         std::to_string(window));
            VectorCircuitStream stream(circuit);
            StreamStats stats;
            auto streamed = buildPatternStreamed(
                stream, StreamWindow{window}, {}, &stats);
            ASSERT_TRUE(streamed.ok()) << streamed.status().toString();
            EXPECT_EQ(encodePatternArtifact(*streamed), oracle);
            EXPECT_EQ(stats.opsStreamed,
                      static_cast<std::uint64_t>(circuit.numGates()));
            if (window > 0)
                EXPECT_GE(stats.windows, 1u);
        }
    }
}

TEST(StreamingPatternBuilder, CheckpointAbortsMidStream)
{
    const Circuit circuit = makeQft(8);
    VectorCircuitStream stream(circuit);
    int fired = 0;
    auto streamed = buildPatternStreamed(
        stream, StreamWindow{4}, [&](const WindowEvent &) -> Status {
            if (++fired >= 2)
                return Status::cancelled("stop mid-stream");
            return Status::okStatus();
        });
    ASSERT_FALSE(streamed.ok());
    EXPECT_EQ(streamed.status().code(), StatusCode::Cancelled);
    EXPECT_EQ(fired, 2);
}

TEST(StreamingPatternBuilder, WindowEventsReportSettledProgress)
{
    const Circuit circuit = makeQft(6);
    VectorCircuitStream stream(circuit);
    std::vector<WindowEvent> events;
    auto streamed = buildPatternStreamed(
        stream, StreamWindow{16}, [&](const WindowEvent &event) {
            events.push_back(event);
            return Status::okStatus();
        });
    ASSERT_TRUE(streamed.ok());
    ASSERT_FALSE(events.empty());
    std::uint64_t previous = 0;
    for (std::size_t i = 0; i < events.size(); ++i) {
        EXPECT_EQ(events[i].index, static_cast<std::uint32_t>(i));
        EXPECT_GE(events[i].settled, previous);
        previous = events[i].settled;
        EXPECT_EQ(events[i].total,
                  static_cast<std::uint64_t>(circuit.numGates()));
    }
    EXPECT_EQ(events.back().settled,
              static_cast<std::uint64_t>(circuit.numGates()));
}

// --- List scheduler: window invariance and checkpoints --------------------

/**
 * QFT-16 on 4 QPUs with a round-robin partition. The pattern and its
 * dependencies are static: the LSP borrows them.
 */
LayerSchedulingProblem
qftLsp()
{
    static const Pattern pattern = buildPattern(makeQft(16));
    static const Digraph deps = realTimeDependencyGraph(pattern);
    const DcMbqcConfig config =
        CompileOptions().numQpus(4).gridSize(7).build().value();
    std::vector<int> assign(pattern.graph().numNodes());
    for (NodeId u = 0; u < pattern.graph().numNodes(); ++u)
        assign[u] = static_cast<int>(u) % 4;
    return buildLayerSchedulingProblem(pattern.graph(), deps,
                                       Partitioning(assign, 4), 4,
                                       config.grid, config.order,
                                       config.kmax)
        .value();
}

TEST(StreamingScheduler, WindowsCheckpointWithoutChangingTheSchedule)
{
    const LayerSchedulingProblem lsp = qftLsp();
    const Schedule whole = listScheduleDefault(lsp);
    const auto oracle = encodeScheduleArtifact(whole);
    const std::uint64_t total =
        lsp.mainTasks().size() + lsp.syncTasks().size();
    ASSERT_GT(whole.makespan, 64);

    for (std::uint32_t window : windowCorpus()) {
        SCOPED_TRACE("window=" + std::to_string(window));
        std::vector<WindowEvent> events;
        StreamStats stats;
        auto windowed = listScheduleDefault(
            lsp, StreamWindow{window},
            [&](const WindowEvent &event) {
                events.push_back(event);
                return Status::okStatus();
            },
            &stats);
        ASSERT_TRUE(windowed.ok()) << windowed.status().toString();
        EXPECT_EQ(encodeScheduleArtifact(*windowed), oracle);

        // One event per closed window: every `window` slots, plus the
        // end of the makespan (the only event for window 0).
        const std::size_t expected = window == 0
            ? 1
            : (whole.makespan + window - 1) / window;
        ASSERT_EQ(events.size(), expected);
        EXPECT_EQ(stats.windows, expected);
        EXPECT_EQ(stats.schedulerLivePeak, lsp.syncTasks().size());
        std::uint64_t previous = 0;
        for (std::size_t i = 0; i < events.size(); ++i) {
            EXPECT_EQ(events[i].index, static_cast<std::uint32_t>(i));
            EXPECT_GE(events[i].settled, previous);
            EXPECT_EQ(events[i].total, total);
            previous = events[i].settled;
        }
        EXPECT_EQ(events.back().settled, total);

        // A checkpoint that refuses aborts the run with its status.
        int fired = 0;
        auto aborted = listScheduleDefault(
            lsp, StreamWindow{window}, [&](const WindowEvent &) {
                ++fired;
                return Status::cancelled("stop the scheduler");
            });
        ASSERT_FALSE(aborted.ok());
        EXPECT_EQ(aborted.status().code(), StatusCode::Cancelled);
        EXPECT_EQ(fired, 1);
    }
}

TEST(StreamingScheduler, MidPassCancellationAbortsScheduleList)
{
    // Cancel from the first ScheduleList window: the next checkpoint
    // aborts the pass, which reports the Cancelled status.
    CancellationToken token;
    struct CancelInScheduler : PassObserver
    {
        CancellationToken *token = nullptr;
        Status scheduleStatus;
        void
        onWindow(const std::string &, const Pass &pass,
                 const WindowEvent &) override
        {
            if (std::string(pass.name()) == "ScheduleList")
                token->cancel();
        }
        void
        onPassEnd(const std::string &, const Pass &pass,
                  const StageReport &report) override
        {
            if (std::string(pass.name()) == "ScheduleList")
                scheduleStatus = report.status;
        }
    } observer;
    observer.token = &token;

    CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).window(1));
    driver.addObserver(&observer);
    auto request = CompileRequest::fromCircuit(makeQft(8));
    request.withCancellation(&token);
    auto cancelled = driver.compile(request);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_EQ(cancelled.status().code(), StatusCode::Cancelled);
    EXPECT_EQ(observer.scheduleStatus.code(), StatusCode::Cancelled);
}

// --- Driver: window invariance ------------------------------------------

/** Semantic payload of one distributed compile, for comparison. */
struct CompileFingerprint
{
    std::vector<std::uint8_t> pattern;
    std::vector<std::uint8_t> schedule;
    std::vector<int> partition;
    int connectors = 0;

    bool
    operator==(const CompileFingerprint &other) const
    {
        return pattern == other.pattern &&
            schedule == other.schedule &&
            partition == other.partition &&
            connectors == other.connectors;
    }
};

CompileFingerprint
fingerprint(const CompileReport &report)
{
    CompileFingerprint print;
    if (report.pattern)
        print.pattern = encodePatternArtifact(*report.pattern);
    print.schedule =
        encodeScheduleArtifact(report.result().schedule);
    print.partition = report.result().partition.assignment();
    print.connectors = report.result().numConnectors;
    return print;
}

TEST(StreamingDriver, WindowedCompileMatchesWindowZero)
{
    const Circuit circuit = makeQft(8);
    auto whole =
        CompilerDriver(
            CompileOptions().numQpus(2).gridSize(7).seed(3))
            .compile(CompileRequest::fromCircuit(circuit));
    ASSERT_TRUE(whole.ok()) << whole.status().toString();
    const CompileFingerprint oracle = fingerprint(*whole);

    for (std::uint32_t window : windowCorpus()) {
        SCOPED_TRACE("window=" + std::to_string(window));
        CompileOptions options;
        options.numQpus(2).gridSize(7).seed(3);
        if (window > 0)
            options.window(static_cast<int>(window));
        auto windowed = CompilerDriver(options).compile(
            CompileRequest::fromCircuit(circuit));
        ASSERT_TRUE(windowed.ok()) << windowed.status().toString();
        EXPECT_TRUE(fingerprint(*windowed) == oracle);
        if (window > 0) {
            EXPECT_GE(windowed->streaming.windows, 1u);
            EXPECT_GT(windowed->streaming.opsStreamed, 0u);
        }
    }
}

TEST(StreamingDriver, StreamEntryMatchesCircuitEntry)
{
    const auto stream = makeDeepQaoaStream(8, 3);
    const Circuit materialized = stream->materialize();

    const auto options = CompileOptions().numQpus(2).gridSize(7).seed(5);
    auto from_circuit = CompilerDriver(options).compile(
        CompileRequest::fromCircuit(materialized));
    ASSERT_TRUE(from_circuit.ok())
        << from_circuit.status().toString();

    auto windowed = CompileOptions(options);
    windowed.window(16);
    auto from_stream = CompilerDriver(windowed).compile(
        CompileRequest::fromCircuitStream(stream));
    ASSERT_TRUE(from_stream.ok()) << from_stream.status().toString();

    EXPECT_TRUE(fingerprint(*from_stream) ==
                fingerprint(*from_circuit));
    EXPECT_GE(from_stream->streaming.windows, 1u);
    EXPECT_GT(from_stream->streaming.frontierNodePeak, 0u);
    // getrusage-backed peak RSS is available on the CI platforms.
    EXPECT_GT(from_stream->peakRssBytes, 0u);
}

// --- Cache interaction -----------------------------------------------------

TEST(StreamingCache, StreamAliasesItsMaterializedCircuit)
{
    const auto stream = makeRandomCliffordTStream(6, 200);
    const Circuit materialized = stream->materialize();
    auto config = CompileOptions().numQpus(2).gridSize(7).build();
    ASSERT_TRUE(config.ok());

    const CacheKeyPair from_stream = computeCacheKey(
        CompileRequest::fromCircuitStream(stream), *config, false);
    const CacheKeyPair from_circuit = computeCacheKey(
        CompileRequest::fromCircuit(materialized), *config, false);
    EXPECT_EQ(from_stream.key, from_circuit.key);
    EXPECT_EQ(from_stream.verifier, from_circuit.verifier);

    // Hashing drains the stream; the key must be reproducible from
    // a second drain (streams are replayable by contract).
    const CacheKeyPair again = computeCacheKey(
        CompileRequest::fromCircuitStream(stream), *config, false);
    EXPECT_EQ(again.key, from_stream.key);
    EXPECT_EQ(again.verifier, from_stream.verifier);
}

TEST(StreamingCache, WindowIsExcludedFromTheCacheKey)
{
    auto cache = std::make_shared<CompileCache>();
    const Circuit circuit = makeQft(6);

    auto cold = CompilerDriver(CompileOptions()
                                   .numQpus(2)
                                   .gridSize(7)
                                   .seed(4)
                                   .window(64)
                                   .cache(cache))
                    .compile(CompileRequest::fromCircuit(circuit));
    ASSERT_TRUE(cold.ok());
    EXPECT_FALSE(cold->cacheHit);

    // Same request, different window: must replay the same artifact.
    auto warm = CompilerDriver(CompileOptions()
                                   .numQpus(2)
                                   .gridSize(7)
                                   .seed(4)
                                   .cache(cache))
                    .compile(CompileRequest::fromCircuit(circuit));
    ASSERT_TRUE(warm.ok());
    EXPECT_TRUE(warm->cacheHit);
    EXPECT_EQ(warm->cacheKey, cold->cacheKey);
}

TEST(StreamingCache, MidStreamCancellationLeavesNoPartialEntries)
{
    const std::string dir =
        ::testing::TempDir() + "dcmbqc_stream_cancel_ut";
    std::filesystem::remove_all(dir);
    CacheConfig cache_config;
    cache_config.diskDir = dir;
    auto cache = std::make_shared<CompileCache>(cache_config);

    // Cancel from inside the first window notification: the next
    // checkpoint aborts the pattern build mid-stream.
    CancellationToken token;
    struct CancelOnWindow : PassObserver
    {
        CancellationToken *token = nullptr;
        void
        onWindow(const std::string &, const Pass &,
                 const WindowEvent &) override
        {
            token->cancel();
        }
    } observer;
    observer.token = &token;

    CompilerDriver driver(CompileOptions()
                              .numQpus(2)
                              .gridSize(7)
                              .seed(6)
                              .window(8)
                              .cache(cache));
    driver.addObserver(&observer);
    auto request = CompileRequest::fromCircuit(makeQft(8));
    request.withCancellation(&token);
    auto cancelled = driver.compile(request);
    ASSERT_FALSE(cancelled.ok());
    EXPECT_EQ(cancelled.status().code(), StatusCode::Cancelled);

    // No artifact — partial or temporary — may have reached either
    // cache tier.
    EXPECT_EQ(cache->size(), 0u);
    EXPECT_EQ(cache->stats().diskWrites, 0u);
    std::size_t files = 0;
    if (std::filesystem::exists(dir))
        for (const auto &entry :
             std::filesystem::recursive_directory_iterator(dir))
            files += entry.is_regular_file() ? 1 : 0;
    EXPECT_EQ(files, 0u);
}

// --- Validation through the Status channel ---------------------------------

TEST(StreamingValidation, NegativeWindowIsInvalidConfig)
{
    const Status status = CompileOptions().window(-3).validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::InvalidConfig);
    EXPECT_NE(status.message().find("window"), std::string::npos);

    auto report =
        CompilerDriver(CompileOptions().window(-3))
            .compile(CompileRequest::fromCircuit(makeQft(4)));
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::InvalidConfig);
}

TEST(StreamingValidation, NullOrEmptyStreamsAreRejected)
{
    auto null_request = CompileRequest::fromCircuitStream(nullptr);
    const Status null_status = null_request.validate();
    ASSERT_FALSE(null_status.ok());
    EXPECT_EQ(null_status.code(), StatusCode::InvalidArgument);

    auto empty = std::make_shared<GeneratorCircuitStream>(
        "empty", 3, 0, [](std::uint64_t) { return Gate{}; });
    const Status empty_status =
        CompileRequest::fromCircuitStream(empty).validate();
    ASSERT_FALSE(empty_status.ok());
    EXPECT_EQ(empty_status.code(), StatusCode::InvalidArgument);
}

// --- Deterministic parallel local compiles --------------------------------

TEST(ParallelKernels, LocalCompileIsWorkerCountInvariant)
{
    const Pattern pattern = buildPattern(makeQft(8));
    const Digraph deps = realTimeDependencyGraph(pattern);
    auto config = CompileOptions().numQpus(4).gridSize(7).build();
    ASSERT_TRUE(config.ok());
    std::vector<int> assign(pattern.graph().numNodes());
    for (NodeId u = 0; u < pattern.graph().numNodes(); ++u)
        assign[u] = static_cast<int>(u) % 4;
    const Partitioning part(assign, 4);

    // One worker compiles the QPUs sequentially: the oracle.
    std::vector<LocalSchedule> locals_seq;
    const auto oracle_lsp = buildLayerSchedulingProblem(
        pattern.graph(), deps, part, 4, config->grid, config->order,
        config->kmax, &locals_seq, /*num_workers=*/1);
    ASSERT_TRUE(oracle_lsp.ok()) << oracle_lsp.status().toString();
    const auto oracle =
        encodeScheduleArtifact(listScheduleDefault(*oracle_lsp));

    for (int workers : {2, 4, 8}) {
        SCOPED_TRACE("workers=" + std::to_string(workers));
        std::vector<LocalSchedule> locals;
        const auto lsp = buildLayerSchedulingProblem(
            pattern.graph(), deps, part, 4, config->grid,
            config->order, config->kmax, &locals, workers);
        ASSERT_TRUE(lsp.ok()) << lsp.status().toString();
        EXPECT_EQ(encodeScheduleArtifact(listScheduleDefault(*lsp)),
                  oracle);
        ASSERT_EQ(locals.size(), locals_seq.size());
        for (std::size_t q = 0; q < locals.size(); ++q)
            EXPECT_EQ(encodeLocalScheduleArtifact(locals[q]),
                      encodeLocalScheduleArtifact(locals_seq[q]));
    }
}

// --- Huge-circuit generator streams ----------------------------------------

TEST(HugeGenerators, StreamsAreReplayableAndSized)
{
    const std::vector<std::shared_ptr<CircuitStream>> streams = {
        makeGraphStateStream(5, 7),
        makeDeepQaoaStream(9, 4, 3),
        makeRandomCliffordTStream(8, 500, 19),
    };
    for (const auto &stream : streams) {
        SCOPED_TRACE(stream->name());
        const Circuit first = stream->materialize();
        stream->reset();
        const Circuit second = stream->materialize();
        EXPECT_EQ(encodeCircuitArtifact(first),
                  encodeCircuitArtifact(second));
        EXPECT_EQ(static_cast<std::uint64_t>(first.numGates()),
                  stream->totalGates());
        EXPECT_EQ(first.numQubits(), stream->numQubits());
    }
}

// --- Output pins -------------------------------------------------------------

TEST(StreamPatternPins, ArtifactBytesOfTheStreamFamilies)
{
    // Edge order and the embedded X/Z sets both follow adjacency, so
    // these fix the pattern graph's layout on each huge family.
    struct Pin
    {
        std::shared_ptr<CircuitStream> stream;
        std::uint64_t artifactHash;
    };
    const Pin pins[] = {
        {makeGraphStateStream(20, 20), 0x19386b0fe46b7836ull},
        {makeDeepQaoaStream(16, 4), 0xa0db1982d12c9f7cull},
        {makeRandomCliffordTStream(16, 2000), 0xda7b15841ebb3b88ull},
    };
    for (const Pin &pin : pins) {
        SCOPED_TRACE(pin.stream->name());
        auto pattern = buildPatternStreamed(*pin.stream, StreamWindow{64});
        ASSERT_TRUE(pattern.ok()) << pattern.status().toString();
        const std::vector<std::uint8_t> bytes =
            encodePatternArtifact(*pattern);
        EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()), pin.artifactHash);
    }
}

} // namespace
} // namespace dcmbqc

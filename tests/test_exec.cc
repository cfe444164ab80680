/**
 * @file
 * Tests of the ExecutionBackend subsystem: registry and
 * capabilities, deterministic parallel shot sampling (bit-identical
 * for any worker count), driver execute/compileAndExecute
 * integration including report stages, the ExecResult artifact
 * codec, and the rejection paths of ExecOptions / program-capability
 * mismatches (zero shots, negative seeds, unknown backends,
 * non-Clifford patterns, missing schedules).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <limits>

#include "api/api.hh"
#include "circuit/generators.hh"
#include "circuit/huge_generators.hh"
#include "exec/stabilizer_replay.hh"
#include "mbqc/pattern_builder.hh"
#include "noise/analysis.hh"
#include "photonic/grid.hh"
#include "serialize/binary.hh"
#include "serialize/codecs.hh"
#include "serialize/json.hh"
#include "driver_helpers.hh"

namespace dcmbqc
{
namespace
{

/** Every deterministic field (wallMillis is wall-clock, excluded). */
void
expectSameExecResult(const ExecResult &a, const ExecResult &b)
{
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.label, b.label);
    EXPECT_EQ(a.shots, b.shots);
    EXPECT_EQ(a.completedShots, b.completedShots);
    EXPECT_EQ(a.numWires, b.numWires);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.probabilities, b.probabilities);
    EXPECT_EQ(a.lostShots, b.lostShots);
    EXPECT_EQ(a.lostPhotons, b.lostPhotons);
    EXPECT_DOUBLE_EQ(a.analyticSuccessProbability,
                     b.analyticSuccessProbability);
    EXPECT_EQ(a.maxStorageCycles, b.maxStorageCycles);
    EXPECT_EQ(a.notes, b.notes);
}

TEST(ExecBackendRegistry, ListsTheFourBuiltInBackends)
{
    const auto names = backendNames();
    ASSERT_EQ(names.size(), 4u);
    EXPECT_EQ(names[0], "statevector");
    EXPECT_EQ(names[1], "stabilizer");
    EXPECT_EQ(names[2], "mc-loss");
    EXPECT_EQ(names[3], "schedule");

    for (const std::string &name : names) {
        const ExecutionBackend *backend = findBackend(name);
        ASSERT_NE(backend, nullptr) << name;
        EXPECT_EQ(backend->name(), name);
    }
    EXPECT_EQ(findBackend("quantum-annealer"), nullptr);
}

TEST(ExecBackendRegistry, CapabilitiesDescribeTheContract)
{
    const auto sv = findBackend("statevector")->capabilities();
    EXPECT_TRUE(sv.runsPattern);
    EXPECT_FALSE(sv.runsSchedule);
    EXPECT_FALSE(sv.cliffordOnly);
    EXPECT_TRUE(sv.exactProbabilities);
    EXPECT_GT(sv.maxWires, 0);

    const auto stab = findBackend("stabilizer")->capabilities();
    EXPECT_TRUE(stab.runsPattern);
    EXPECT_TRUE(stab.cliffordOnly);
    EXPECT_EQ(stab.maxWires, 0);

    const auto loss = findBackend("mc-loss")->capabilities();
    EXPECT_FALSE(loss.runsPattern);
    EXPECT_TRUE(loss.runsSchedule);

    // The schedule backend consumes both payloads: the pattern for
    // semantics, the compiled schedule for measurement order.
    const auto sched = findBackend("schedule")->capabilities();
    EXPECT_TRUE(sched.runsPattern);
    EXPECT_TRUE(sched.runsSchedule);
    EXPECT_TRUE(sched.cliffordOnly);
    EXPECT_TRUE(sched.exactProbabilities);
    EXPECT_EQ(sched.maxWires, 0);
}

TEST(ExecOptionsValidation, RejectsEveryBadFieldAtOnce)
{
    ExecOptions options;
    options.shots = 0;
    options.seed = -4;
    options.numThreads = -1;
    options.backend = "quantum-annealer";

    const Status status = options.validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::InvalidConfig);
    // All violations in one message, not just the first.
    EXPECT_NE(status.message().find("shots"), std::string::npos);
    EXPECT_NE(status.message().find("seed"), std::string::npos);
    EXPECT_NE(status.message().find("numThreads"), std::string::npos);
    EXPECT_NE(status.message().find("quantum-annealer"),
              std::string::npos);
}

TEST(ExecOptionsValidation, RejectsBadLossModel)
{
    ExecOptions options;
    options.lossModel.cyclePeriodNs = 0.0;
    options.lossModel.speedFraction = 1.5;
    const Status status = options.validate();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("cycle period"),
              std::string::npos);
    EXPECT_NE(status.message().find("speed fraction"),
              std::string::npos);
}

TEST(ExecOptionsValidation, RejectionsFlowThroughExecuteProgram)
{
    const ExecProgram program =
        ExecProgram::fromCircuit(makeQft(3), "rejected");
    ExecOptions options;
    options.shots = 0;
    auto result = executeProgram(program, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidConfig);

    options.shots = 4;
    options.seed = -1;
    result = executeProgram(program, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidConfig);

    options.seed = 1;
    options.backend = "nope";
    result = executeProgram(program, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(), StatusCode::InvalidConfig);
}

TEST(ExecDispatch, StabilizerRejectsNonCliffordPatterns)
{
    // QFT carries pi/4-family phases: not a Clifford pattern.
    ExecOptions options;
    options.backend = "stabilizer";
    options.shots = 4;
    auto result = executeProgram(
        ExecProgram::fromCircuit(makeQft(4)), options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              StatusCode::FailedPrecondition);
    EXPECT_NE(result.status().message().find("Clifford"),
              std::string::npos);
}

TEST(ExecDispatch, CliffordAngleCheckToleratesRoundingButNotNan)
{
    // One check serves both replay backends and names the caller.
    constexpr double pi = 3.14159265358979323846;
    const double nan = std::numeric_limits<double>::quiet_NaN();
    const double inf = std::numeric_limits<double>::infinity();
    const Pattern pattern = buildPattern(test::rzCircuit(pi / 2));
    const NodeId u = pattern.measurementOrder().back();
    // (angle, quarter turns), -1 for a rejected angle.
    const std::pair<double, int> cases[] = {
        {0.0, 0}, {pi / 2 + 1e-12, 1}, {pi - 1e-12, 2}, {-pi / 2, 3},
        {5 * pi / 2, 1}, {pi / 4, -1}, {pi / 2 + 1e-6, -1},
        {nan, -1}, {inf, -1}, {-inf, -1},
    };
    for (const auto &[angle, k] : cases) {
        SCOPED_TRACE("angle " + std::to_string(angle));
        auto turns = cliffordBaseTurns(
            test::withNodeAngle(pattern, u, angle), "schedule");
        if (k >= 0) {
            ASSERT_TRUE(turns.ok()) << turns.status().toString();
            EXPECT_EQ((*turns)[u], k);
            continue;
        }
        ASSERT_FALSE(turns.ok());
        EXPECT_EQ(turns.status().code(), StatusCode::FailedPrecondition);
        EXPECT_EQ(turns.status().message().rfind(
                      "schedule backend requires a Clifford pattern: "
                      "node " + std::to_string(u),
                      0),
                  0u)
            << turns.status().message();
    }
}

TEST(ExecDispatch, NonFiniteAngleIsRejectedBeforeAnyBackendRuns)
{
    // Built in process, the NaN reaches the pattern unchecked;
    // statevector used to abort on it and stabilizer to read it as
    // 0 quarter turns.
    const Circuit circuit =
        test::rzCircuit(std::numeric_limits<double>::quiet_NaN());
    auto report =
        CompilerDriver(CompileOptions().numQpus(2).gridSize(7))
            .compile(CompileRequest::fromCircuit(test::rzCircuit(0.5)));
    ASSERT_TRUE(report.ok()) << report.status().toString();
    const ExecProgram program =
        ExecProgram::fromCircuit(circuit).withSchedule(
            *report->distributed);
    for (const char *backend :
         {"stabilizer", "schedule", "statevector", "mc-loss"}) {
        SCOPED_TRACE(backend);
        ExecOptions options;
        options.backend = backend;
        options.shots = 16;
        auto result = executeProgram(program, options);
        ASSERT_FALSE(result.ok());
        EXPECT_EQ(result.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(result.status().message().find("non-finite angle"),
                  std::string::npos)
            << result.status().message();
    }
}

TEST(ExecDispatch, PatternBackendsRejectGraphOnlyPrograms)
{
    const Pattern pattern = ExecProgram::fromCircuit(makeQft(3))
                                .pattern();
    const ExecProgram graph_only = ExecProgram::fromGraph(
        pattern.graph(),
        Digraph(pattern.graph().numNodes()), "graph-only");
    ExecOptions options;
    options.shots = 4;
    auto result = executeProgram(graph_only, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              StatusCode::FailedPrecondition);
}

TEST(ExecDispatch, PatternProgramKeepsOneGraph)
{
    // A pattern-backed program reads the pattern's own graph; a
    // graph-only program keeps the graph it was given.
    const ExecProgram program = ExecProgram::fromCircuit(makeQft(4));
    ASSERT_TRUE(program.hasPattern());
    EXPECT_EQ(&program.graph(), &program.pattern().graph());
    const ExecProgram copy = program;
    EXPECT_EQ(&copy.graph(), &copy.pattern().graph());

    const ExecProgram graph_only = ExecProgram::fromGraph(
        program.graph(), program.deps(), "graph-only");
    EXPECT_EQ(graph_only.graph().numNodes(),
              program.graph().numNodes());
    EXPECT_EQ(graph_only.graph().numEdges(),
              program.graph().numEdges());
    EXPECT_TRUE(graph_only.validate().ok());
}

TEST(ExecDispatch, LossBackendRequiresACompiledSchedule)
{
    ExecOptions options;
    options.backend = "mc-loss";
    options.shots = 8;
    auto result = executeProgram(
        ExecProgram::fromCircuit(makeQft(4)), options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              StatusCode::FailedPrecondition);
    EXPECT_NE(result.status().message().find("compile"),
              std::string::npos);
}

TEST(ExecDispatch, ScheduleBackendRejectsScheduleLessPrograms)
{
    // A pattern-only program (e.g. a compile artifact that was
    // never distributed-compiled) must fail via Status, not crash.
    ExecOptions options;
    options.backend = "schedule";
    options.shots = 8;
    auto result = executeProgram(
        ExecProgram::fromCircuit(
            makeRandomCliffordCircuit(3, 8, 3), "no-schedule"),
        options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              StatusCode::FailedPrecondition);
    EXPECT_NE(result.status().message().find("compile"),
              std::string::npos);
}

TEST(ExecDispatch, ScheduleBackendRejectsBaselineOnlyPrograms)
{
    // The dispatcher admits baselines for schedule-capable backends
    // (mc-loss runs them); the schedule backend itself must reject
    // a monolithic baseline via Status — it has no distributed
    // timeline to interleave.
    const CompilerDriver driver(CompileOptions().gridSize(9));
    const auto request = CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(3, 8, 3), "baseline-only");
    auto report = driver.compileBaseline(request);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_TRUE(report->baseline.has_value());

    ExecOptions options;
    options.backend = "schedule";
    options.shots = 8;
    const ExecProgram program =
        ExecProgram::fromRequest(request).withBaseline(
            *report->baseline);
    auto result = executeProgram(program, options);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.status().code(),
              StatusCode::FailedPrecondition);
    EXPECT_NE(result.status().message().find("baseline"),
              std::string::npos);
}

TEST(ExecDispatch, ScheduleBackendRejectsNonCliffordPatterns)
{
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(1));
    const auto request =
        CompileRequest::fromCircuit(makeQft(4), "qft");
    ExecOptions options;
    options.backend = "schedule";
    options.shots = 4;
    auto report = driver.compileAndExecute(request, options);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(),
              StatusCode::FailedPrecondition);
    EXPECT_NE(report.status().message().find("Clifford"),
              std::string::npos);
}

TEST(ExecDispatch, StreamedRequestRunsAsItsMaterializedCircuit)
{
    const auto stream = makeGraphStateStream(3, 3);
    const Circuit circuit = stream->materialize();
    const ExecProgram streamed = ExecProgram::fromRequest(
        CompileRequest::fromCircuitStream(stream));
    const ExecProgram direct = ExecProgram::fromCircuit(circuit);
    EXPECT_EQ(streamed.label(), direct.label());
    ASSERT_TRUE(streamed.hasPattern());
    EXPECT_EQ(encodePatternArtifact(streamed.pattern()),
              encodePatternArtifact(direct.pattern()));
    EXPECT_EQ(encodeDigraphArtifact(streamed.deps()),
              encodeDigraphArtifact(direct.deps()));

    ExecOptions options;
    options.backend = "stabilizer";
    options.shots = 16;
    options.seed = 4;
    auto a = executeProgram(streamed, options);
    auto b = executeProgram(direct, options);
    ASSERT_TRUE(a.ok()) << a.status().toString();
    ASSERT_TRUE(b.ok()) << b.status().toString();
    EXPECT_EQ(a->counts, b->counts);
}

TEST(ExecStatevector, CountsCoverAllShotsAndProbabilitiesNormalize)
{
    ExecOptions options;
    options.shots = 96;
    options.seed = 5;
    auto result = executeProgram(
        ExecProgram::fromCircuit(makeQaoaMaxcut(4, 3), "qaoa"),
        options);
    ASSERT_TRUE(result.ok()) << result.status().toString();

    EXPECT_EQ(result->backend, "statevector");
    EXPECT_EQ(result->label, "qaoa");
    EXPECT_EQ(result->shots, 96);
    EXPECT_EQ(result->completedShots, 96);
    EXPECT_EQ(result->numWires, 4);
    EXPECT_EQ(result->seed, 5);

    std::int64_t total = 0;
    for (const auto &[bits, count] : result->counts) {
        EXPECT_EQ(bits.size(), 4u);
        total += count;
    }
    EXPECT_EQ(total, 96);

    double prob_total = 0.0;
    for (const auto &[bits, p] : result->probabilities)
        prob_total += p;
    EXPECT_NEAR(prob_total, 1.0, 1e-9);
}

TEST(ExecStatevector, RawModeSkipsExactProbabilities)
{
    ExecOptions options;
    options.shots = 8;
    options.applyByproducts = false;
    auto result = executeProgram(
        ExecProgram::fromCircuit(makeQft(3)), options);
    ASSERT_TRUE(result.ok()) << result.status().toString();
    EXPECT_TRUE(result->probabilities.empty());
    ASSERT_EQ(result->notes.size(), 1u);
}

TEST(ExecParallelism, ShotSamplingIsThreadCountInvariant)
{
    // The per-shot seeding contract: 1 worker and 4 workers must
    // produce bit-identical results on every backend.
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(2));
    const auto request = CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(4, 12, 9), "threads");

    for (const char *backend :
         {"statevector", "stabilizer", "mc-loss", "schedule"}) {
        ExecOptions serial;
        serial.backend = backend;
        serial.shots = 64;
        serial.seed = 11;
        serial.numThreads = 1;
        serial.lossModel.cyclePeriodNs = 50.0;
        ExecOptions parallel = serial;
        parallel.numThreads = 4;

        auto a = driver.compileAndExecute(request, serial);
        auto b = driver.compileAndExecute(request, parallel);
        ASSERT_TRUE(a.ok()) << a.status().toString();
        ASSERT_TRUE(b.ok()) << b.status().toString();
        ASSERT_EQ(a->executions.size(), 1u);
        ASSERT_EQ(b->executions.size(), 1u);
        EXPECT_EQ(b->executions[0].threads, 4);
        // Thread count is an execution detail, not a result field.
        ExecResult copy = b->executions[0];
        copy.threads = a->executions[0].threads;
        expectSameExecResult(a->executions[0], copy);
    }
}

TEST(ExecParallelism, ShotBlocksTileEveryShotCountWithoutOverflow)
{
    // Running INT_MAX shots is too slow for a test, so the block
    // bounds are checked directly: contiguous, in order, disjoint,
    // covering [0, shots) and at most one shot apart in size.
    constexpr int kMax = std::numeric_limits<int>::max();
    const std::pair<int, int> cases[] = {
        {kMax, 2}, {kMax, 4}, {kMax - 1, 4}, {kMax - 3, 4},
        {3, 4}, {1, 2}, {0, 3}, {17, 4}, {1000, 7},
    };
    for (const auto &[shots, blocks] : cases) {
        SCOPED_TRACE(std::to_string(shots) + " shots in " +
                     std::to_string(blocks) + " blocks");
        int next = 0;
        int smallest = kMax;
        int largest = 0;
        for (int block = 0; block < blocks; ++block) {
            const ShotRange range = shotBlock(shots, blocks, block);
            EXPECT_EQ(range.begin, next) << "block " << block;
            EXPECT_LE(range.begin, range.end) << "block " << block;
            smallest = std::min(smallest, range.end - range.begin);
            largest = std::max(largest, range.end - range.begin);
            next = range.end;
        }
        EXPECT_EQ(next, shots);
        EXPECT_LE(largest - smallest, 1);
    }
}

TEST(ExecLossBackend, OncePerRunAnalysisIsHoistedOutOfTheShotLoop)
{
    // mc-loss samples thousands of shots from one analytic
    // derivation; rebuilding that derivation inside the shot loop
    // would be quadratic-ish waste invisible to result checks, so
    // the call counters pin it structurally: delta must be exactly
    // one per run, independent of the shot count.
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(13));
    const auto request = CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(4, 14, 21), "hoist");
    auto report = driver.compile(request);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    const ExecProgram program =
        ExecProgram::fromRequest(request).withSchedule(
            report->result());

    // Default run (built-in delay-line config): the schedule-derived
    // exposure feeds every shot's sampling probabilities but must be
    // built once per run.
    ExecOptions plain;
    plain.backend = "mc-loss";
    plain.shots = 512;
    plain.seed = 6;
    plain.lossModel.cyclePeriodNs = 30.0;
    long exposure_before = buildExposureCallCount();
    auto a = executeProgram(program, plain);
    ASSERT_TRUE(a.ok()) << a.status().toString();
    EXPECT_EQ(buildExposureCallCount() - exposure_before, 1);

    // A supplied config takes the same path. The correlated
    // mechanism also exercises the per-worker mask reuse in the shot
    // loop.
    ExecOptions noisy = plain;
    NoiseConfig noise;
    noise.add("connector", {{"insertion_loss_db", 1.0}})
        .add("correlated-burst",
             {{"burst_rate", 0.02}, {"burst_width", 3.0}});
    noisy.noise = noise;
    exposure_before = buildExposureCallCount();
    auto b = executeProgram(program, noisy);
    ASSERT_TRUE(b.ok()) << b.status().toString();
    EXPECT_EQ(buildExposureCallCount() - exposure_before, 1);
    EXPECT_EQ(b->shots, 512);
    EXPECT_EQ(b->completedShots + b->lostShots, b->shots);

    // schedule charges noise against the same exposure: once per
    // noisy run, and not at all when no config charges anything.
    for (const bool with_noise : {false, true}) {
        SCOPED_TRACE(with_noise ? "schedule noisy" : "schedule plain");
        ExecOptions schedule = with_noise ? noisy : plain;
        schedule.backend = "schedule";
        exposure_before = buildExposureCallCount();
        auto c = executeProgram(program, schedule);
        ASSERT_TRUE(c.ok()) << c.status().toString();
        EXPECT_EQ(buildExposureCallCount() - exposure_before,
                  with_noise ? 1 : 0);
        EXPECT_EQ(c->completedShots + c->lostShots, c->shots);
    }
}

TEST(ExecLossBackend, CertainPhotonLossIsAResultNotAnAbort)
{
    // A 10 ms cycle passes ExecOptions::validate(), but one cycle of
    // storage then costs ~400 dB and survival rounds to exactly 0.
    // The run must report certain loss instead of aborting.
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(gridSizeForQubits(8)));
    ExecOptions exec;
    exec.backend = "mc-loss";
    exec.shots = 16;
    exec.lossModel.cyclePeriodNs = 1e7;
    auto report = driver.compileAndExecute(
        CompileRequest::fromCircuit(makeQft(8), "certain-loss"), exec);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_EQ(report->executions.size(), 1u);
    const ExecResult &result = report->executions[0];
    EXPECT_EQ(result.analyticSuccessProbability, 0.0);
    EXPECT_EQ(result.completedShots, 0);
    EXPECT_EQ(result.lostShots, 16);
}

TEST(ExecDriver, CompileAndExecuteRecordsStagesAndStatistics)
{
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(4));
    const auto request = CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(4, 14, 21), "multi");

    ExecOptions sv;
    sv.shots = 32;
    sv.seed = 6;
    ExecOptions loss = sv;
    loss.backend = "mc-loss";
    loss.lossModel.cyclePeriodNs = 30.0;

    auto compile_only = driver.compile(request);
    ASSERT_TRUE(compile_only.ok());
    EXPECT_TRUE(compile_only->executions.empty());

    auto report = driver.compileAndExecute(request, {sv, loss});
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_EQ(report->executions.size(), 2u);
    EXPECT_EQ(report->executions[0].backend, "statevector");
    EXPECT_EQ(report->executions[1].backend, "mc-loss");

    // One timed "Execute[...]" stage per backend, after the passes.
    const auto &stages = report->stages;
    ASSERT_GE(stages.size(), compile_only->stages.size() + 2);
    EXPECT_EQ(stages[stages.size() - 2].pass,
              "Execute[statevector]");
    EXPECT_EQ(stages[stages.size() - 1].pass, "Execute[mc-loss]");
    // The total is every stage, compile and execute, summed in stage
    // order (exact, unlike a wall-clock comparison with the separate
    // compile_only run).
    double stage_sum = 0.0;
    for (const auto &stage : stages)
        stage_sum += stage.millis;
    EXPECT_EQ(report->totalMillis, stage_sum);

    // Loss statistics are aggregated into the histogram keys.
    const ExecResult &mc = report->executions[1];
    EXPECT_EQ(mc.counts.at("success") + mc.counts.at("loss"),
              mc.shots);
    EXPECT_EQ(mc.completedShots + mc.lostShots, mc.shots);
    EXPECT_GE(mc.analyticSuccessProbability, 0.0);
    EXPECT_LE(mc.analyticSuccessProbability, 1.0);
    EXPECT_GT(mc.maxStorageCycles, 0);
}

TEST(ExecDriver, CompileAndExecuteRejectsBadInputsViaStatus)
{
    const CompilerDriver good(
        CompileOptions().numQpus(2).gridSize(7));
    const auto request =
        CompileRequest::fromCircuit(makeQft(4), "reject");

    // No backends requested.
    auto none = good.compileAndExecute(
        request, std::vector<ExecOptions>{});
    ASSERT_FALSE(none.ok());
    EXPECT_EQ(none.status().code(), StatusCode::InvalidArgument);

    // Bad exec options are rejected up front, before any pass runs.
    ExecOptions bad_exec;
    bad_exec.shots = -3;
    auto bad = good.compileAndExecute(request, bad_exec);
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::InvalidConfig);

    // Bad compile options never reach execution.
    const CompilerDriver invalid(
        CompileOptions().numQpus(0).gridSize(7));
    auto rejected = invalid.compileAndExecute(request, ExecOptions{});
    ASSERT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.status().code(), StatusCode::InvalidConfig);
}

TEST(ExecSerialize, ExecResultArtifactRoundTrips)
{
    ExecOptions options;
    options.shots = 48;
    options.seed = 12;
    auto result = executeProgram(
        ExecProgram::fromCircuit(
            makeRandomCliffordCircuit(3, 10, 77), "roundtrip"),
        options);
    ASSERT_TRUE(result.ok()) << result.status().toString();

    const auto bytes = encodeExecResultArtifact(*result);
    auto decoded = decodeExecResultArtifact(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    expectSameExecResult(*result, *decoded);
    EXPECT_DOUBLE_EQ(decoded->wallMillis, result->wallMillis);
    EXPECT_EQ(decoded->threads, result->threads);

    // JSON writer accepts it (spot-check the envelope key).
    const std::string json = toJson(*decoded);
    EXPECT_NE(json.find("\"artifact\": \"exec-result\""),
              std::string::npos);
}

TEST(ExecSerialize, CorruptedExecResultArtifactIsRejected)
{
    ExecResult result;
    result.backend = "statevector";
    result.shots = 4;
    result.completedShots = 4;
    result.counts["00"] = 4;
    auto bytes = encodeExecResultArtifact(result);
    bytes[bytes.size() / 2] ^= 0x40;
    auto decoded = decodeExecResultArtifact(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::InvalidArgument);
}

TEST(ExecSerialize, InconsistentShotCountsAreRejected)
{
    ExecResult result;
    result.backend = "statevector";
    result.shots = 4;
    result.completedShots = 9; // > shots: corrupted payload
    BinaryWriter writer;
    encodeExecResult(writer, result);
    BinaryReader reader(writer.bytes());
    decodeExecResult(reader);
    ASSERT_FALSE(reader.ok());
    EXPECT_NE(reader.status().message().find("shot counts"),
              std::string::npos);
}

TEST(ExecSerialize, ReportWithExecutionsRoundTrips)
{
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(8));
    ExecOptions exec;
    exec.shots = 16;
    exec.seed = 3;
    auto report = driver.compileAndExecute(
        CompileRequest::fromCircuit(
            makeRandomCliffordCircuit(3, 8, 5), "report-rt"),
        exec);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_EQ(report->executions.size(), 1u);

    const auto bytes = encodeCompileReportArtifact(*report);
    auto decoded = decodeCompileReportArtifact(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    ASSERT_EQ(decoded->executions.size(), 1u);
    expectSameExecResult(report->executions[0],
                         decoded->executions[0]);
    const std::string json = toJson(*decoded);
    EXPECT_NE(json.find("\"executions\""), std::string::npos);
}

// --- Output pins -------------------------------------------------------------

TEST(ExecPins, StabilizerAndScheduleResultBytes)
{
    // Both backends entangle each photon with its live neighbours
    // in adjacency order; the bytes must not depend on the thread
    // count either.
    const std::pair<const char *, std::uint64_t> pins[] = {
        {"stabilizer", 0x17d1125481f825b6ull},
        {"schedule", 0xf35f87cf119df589ull},
    };
    std::vector<ExecOptions> runs;
    for (const auto &pin : pins) {
        for (int threads : {1, 4}) {
            ExecOptions options;
            options.backend = pin.first;
            options.shots = 64;
            options.seed = 5;
            options.numThreads = threads;
            runs.push_back(options);
        }
    }
    auto report =
        CompilerDriver(CompileOptions().numQpus(4).gridSize(7).seed(1))
            .compileAndExecute(
                CompileRequest::fromCircuit(
                    makeRandomCliffordCircuit(24, 120, 3), "clifford-24"),
                runs);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_EQ(report->executions.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        SCOPED_TRACE(runs[i].backend + " threads=" +
                     std::to_string(runs[i].numThreads));
        // Wall time and thread count are not result content.
        ExecResult result = report->executions[i];
        result.wallMillis = 0.0;
        result.threads = 1;
        const std::vector<std::uint8_t> bytes =
            encodeExecResultArtifact(result);
        EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()), pins[i / 2].second);
    }
}

TEST(StatevectorPins, ResultBytes)
{
    // The exact probabilities are encoded doubles, so a one-ULP drift
    // in any amplitude of the replayed pattern moves these hashes even
    // where the sampled counts would not. The last run loses shots to
    // a correlated burst and flips outcome bits, pinning the loss
    // tally and the flips; its connector loss stays zero, since a
    // pattern run has no cut edges.
    struct Pin
    {
        const char *program;
        bool byproducts;
        bool noisy;
        std::uint64_t hash;
    };
    const Pin pins[] = {
        {"cliffordt-8q", true, false, 0xcd05c3760f035e79ull},
        {"cliffordt-8q", false, false, 0x8745022f13fdda60ull},
        {"cliffordt-9q", true, false, 0xd1a7a003adc1ffbdull},
        {"cliffordt-9q", false, false, 0xc4efe1530011472aull},
        {"cliffordt-10q", true, false, 0x3f07c5e166bcc1f8ull},
        {"cliffordt-10q", false, false, 0xe1babf34c110f168ull},
        {"qft-6", true, false, 0x01b154a146f1e558ull},
        {"qft-6", false, false, 0x11890da88a269e7bull},
        {"qft-6", true, true, 0x47a448647b520d17ull},
    };
    const auto programFor = [](const std::string &name) {
        if (name == "qft-6")
            return ExecProgram::fromCircuit(makeQft(6), name);
        // The statevector programs of perfbench's exec_shots.
        const int qubits = name == "cliffordt-8q" ? 8
                         : name == "cliffordt-9q" ? 9 : 10;
        return ExecProgram::fromCircuit(
            makeRandomCliffordTCircuit(qubits, 10 * qubits,
                                       150 + (qubits - 8)),
            name);
    };
    NoiseConfig noise;
    noise.add("connector", {{"insertion_loss_db", 3.0}})
        .add("correlated-burst", {{"burst_rate", 0.2}, {"burst_width", 4.0}})
        .add("depolarizing", {{"probability", 0.05}});

    const CompilerDriver driver;
    for (const Pin &pin : pins) {
        const ExecProgram program = programFor(pin.program);
        for (int threads : {1, 4}) {
            SCOPED_TRACE(std::string(pin.program) +
                         (pin.byproducts ? " byproducts" : " raw") +
                         (pin.noisy ? " noisy" : "") +
                         " threads=" + std::to_string(threads));
            ExecOptions options;
            options.backend = "statevector";
            options.shots = pin.noisy ? 200 : 40;
            options.seed = 7;
            options.numThreads = threads;
            options.applyByproducts = pin.byproducts;
            if (pin.noisy)
                options.noise = noise;
            auto result = driver.execute(program, options);
            ASSERT_TRUE(result.ok()) << result.status().toString();
            if (pin.noisy) {
                EXPECT_GT(result->lostShots, 0);
                EXPECT_GT(result->completedShots, 0);
            }
            // Wall time and thread count are not result content.
            result->wallMillis = 0.0;
            result->threads = 1;
            const std::vector<std::uint8_t> bytes =
                encodeExecResultArtifact(*result);
            EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()), pin.hash);
        }
    }
}

TEST(CliffordReplayPins, ResultBytes)
{
    // perfbench's exec_shots Clifford programs on both replay
    // backends, corrected and raw, at 1 and 4 threads, plus one run
    // per backend that loses shots and flips outcome bits. Any replay
    // of the pattern, per shot or derived once per run, must give
    // these bytes.
    struct Pin
    {
        int program;
        const char *backend;
        bool byproducts;
        bool noisy;
        std::uint64_t hash;
    };
    const Pin pins[] = {
        {0, "stabilizer", true, false, 0x77f3ecef6a385c00ull},
        {0, "stabilizer", false, false, 0x31501a14b025ce78ull},
        {0, "schedule", true, false, 0x3ae134ee9e12ecd1ull},
        {0, "schedule", false, false, 0x78be53f8d8d65339ull},
        {0, "stabilizer", true, true, 0x7c0cdae3909c8d54ull},
        {0, "schedule", true, true, 0x07d2e3e25f48e3efull},
        {1, "stabilizer", true, false, 0xf0d7c6247764bcb3ull},
        {1, "stabilizer", false, false, 0x1116f0c2074a227cull},
        {1, "schedule", true, false, 0x67eb043dcfa16f9aull},
        {1, "schedule", false, false, 0xce4a8203a3292fbeull},
        {2, "stabilizer", true, false, 0xc255316c619165faull},
        {2, "stabilizer", false, false, 0x236681e742c5fc5dull},
        {2, "schedule", true, false, 0xc143e12af749936cull},
        {2, "schedule", false, false, 0xbb91a48ee4c98f91ull},
        {3, "stabilizer", true, false, 0x0e1c58d3ba209a7full},
        {3, "stabilizer", false, false, 0x2ab5df72b0b59d64ull},
        {3, "schedule", true, false, 0xca81ddce5c1ad5feull},
        {3, "schedule", false, false, 0x9449ffe3a1c97654ull},
    };
    NoiseConfig noise;
    noise.add("connector", {{"insertion_loss_db", 0.02}})
        .add("correlated-burst", {{"burst_rate", 0.003}, {"burst_width", 2.0}})
        .add("depolarizing", {{"probability", 0.02}});

    for (int program = 0; program < 4; ++program) {
        const int qubits = 24 + 5 * program;
        std::vector<ExecOptions> runs;
        std::vector<const Pin *> run_pins;
        for (const Pin &pin : pins) {
            if (pin.program != program)
                continue;
            for (int threads : {1, 4}) {
                ExecOptions options;
                options.backend = pin.backend;
                options.shots = pin.noisy ? 200 : 64;
                options.seed = 11;
                options.numThreads = threads;
                options.applyByproducts = pin.byproducts;
                if (pin.noisy)
                    options.noise = noise;
                runs.push_back(options);
                run_pins.push_back(&pin);
            }
        }
        auto report =
            CompilerDriver(CompileOptions()
                               .numQpus(4)
                               .gridSize(gridSizeForQubits(qubits))
                               .seed(1))
                .compileAndExecute(
                    CompileRequest::fromCircuit(
                        makeRandomCliffordCircuit(qubits, 8 * qubits,
                                                  100 + program),
                        "clifford-" + std::to_string(qubits)),
                    runs);
        ASSERT_TRUE(report.ok()) << report.status().toString();
        ASSERT_EQ(report->executions.size(), runs.size());
        for (std::size_t i = 0; i < runs.size(); ++i) {
            const Pin &pin = *run_pins[i];
            SCOPED_TRACE(std::to_string(qubits) + "q " + pin.backend +
                         (pin.byproducts ? " byproducts" : " raw") +
                         (pin.noisy ? " noisy" : "") + " threads=" +
                         std::to_string(runs[i].numThreads));
            ExecResult result = report->executions[i];
            if (pin.noisy) {
                EXPECT_GT(result.lostShots, 0);
                EXPECT_GT(result.completedShots, 0);
            }
            // Wall time and thread count are not result content.
            result.wallMillis = 0.0;
            result.threads = 1;
            const std::vector<std::uint8_t> bytes =
                encodeExecResultArtifact(result);
            EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()), pin.hash);
        }
    }
}

TEST(ScheduleNoisePins, ResultBytes)
{
    // Noisy schedule runs without a correlated mechanism, on the
    // first CliffordReplayPins program at 1 and 4 threads. A shot
    // draws each photon's loss, then each fusion's, and then, when
    // it lost nothing, one flip per output bit, all on its salted
    // noise stream; these bytes pin that order.
    struct Pin
    {
        const char *noise;
        std::uint64_t hash;
    };
    const Pin pins[] = {
        {"connector+depolarizing", 0x3fa8bbcc0cd48656ull},
        {"delay-line+fusion+depolarizing", 0x831dce1ecd72d942ull},
    };
    const auto noiseFor = [](const std::string &name) {
        NoiseConfig noise;
        if (name == "connector+depolarizing")
            noise.add("connector", {{"insertion_loss_db", 0.02}});
        else
            noise.add("delay-line", {{"cycle_period_ns", 0.2}})
                .add("fusion",
                     {{"failure_rate", 0.0005}, {"remote_only", 0.0}});
        noise.add("depolarizing", {{"probability", 0.02}});
        return noise;
    };
    std::vector<ExecOptions> runs;
    for (const Pin &pin : pins) {
        for (int threads : {1, 4}) {
            ExecOptions options;
            options.backend = "schedule";
            options.shots = 200;
            options.seed = 11;
            options.numThreads = threads;
            options.noise = noiseFor(pin.noise);
            runs.push_back(options);
        }
    }
    auto report =
        CompilerDriver(CompileOptions()
                           .numQpus(4)
                           .gridSize(gridSizeForQubits(24))
                           .seed(1))
            .compileAndExecute(
                CompileRequest::fromCircuit(
                    makeRandomCliffordCircuit(24, 8 * 24, 100),
                    "clifford-24"),
                runs);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_EQ(report->executions.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const Pin &pin = pins[i / 2];
        SCOPED_TRACE(std::string(pin.noise) + " threads=" +
                     std::to_string(runs[i].numThreads));
        ExecResult result = report->executions[i];
        EXPECT_GT(result.lostShots, 0);
        EXPECT_GT(result.completedShots, 0);
        // Wall time and thread count are not result content.
        result.wallMillis = 0.0;
        result.threads = 1;
        const std::vector<std::uint8_t> bytes =
            encodeExecResultArtifact(result);
        EXPECT_EQ(fnv1a64(bytes.data(), bytes.size()), pin.hash);
    }
}

TEST(McLossPins, LostShotsAndPhotons)
{
    // Every shot draws from its own stream, sites first and then
    // fusions, so the tallies must not depend on how shots are
    // grouped or on the worker count. 15 and 17 shots leave a
    // partial block of 16; 1001 runs 62 full blocks and a tail. The
    // fusion-only runs lose no photon at a site, so only their
    // fusion draws can lose a shot.
    struct Pin
    {
        const char *noise;
        int shots;
        int lostShots;
        std::int64_t lostPhotons;
    };
    const Pin pins[] = {
        {"default", 1, 1, 2},
        {"default", 15, 10, 18},
        {"default", 17, 10, 18},
        {"default", 1001, 605, 942},
        {"fusion", 1, 1, 2},
        {"fusion", 15, 13, 29},
        {"fusion", 17, 14, 30},
        {"fusion", 1001, 734, 1341},
        {"correlated-burst", 1, 1, 2},
        {"correlated-burst", 15, 10, 18},
        {"correlated-burst", 17, 10, 18},
        {"correlated-burst", 1001, 626, 1092},
        {"fusion-only", 1, 0, 0},
        {"fusion-only", 15, 9, 11},
        {"fusion-only", 17, 10, 12},
        {"fusion-only", 1001, 327, 399},
    };
    const auto noiseFor = [](const std::string &name) {
        NoiseConfig noise;
        if (name != "fusion-only")
            noise.add("delay-line", {{"cycle_period_ns", 40.0}});
        if (name == "correlated-burst")
            noise.add("correlated-burst",
                      {{"burst_rate", 0.05}, {"burst_width", 3.0}});
        else
            noise.add("fusion",
                      {{"failure_rate", 0.0005}, {"remote_only", 0.0}});
        return noise;
    };
    std::vector<ExecOptions> runs;
    for (const Pin &pin : pins) {
        for (int threads : {1, 3}) {
            ExecOptions options;
            options.backend = "mc-loss";
            options.shots = pin.shots;
            options.seed = 9;
            options.numThreads = threads;
            options.lossModel.cyclePeriodNs = 40.0;
            if (std::string(pin.noise) != "default")
                options.noise = noiseFor(pin.noise);
            runs.push_back(options);
        }
    }
    auto report =
        CompilerDriver(CompileOptions().numQpus(4).gridSize(7).seed(1))
            .compileAndExecute(
                CompileRequest::fromCircuit(makeQft(12), "qft-12"), runs);
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_EQ(report->executions.size(), runs.size());
    for (std::size_t i = 0; i < runs.size(); ++i) {
        const Pin &pin = pins[i / 2];
        const ExecResult &result = report->executions[i];
        SCOPED_TRACE(std::string(pin.noise) + " shots=" +
                     std::to_string(pin.shots) + " threads=" +
                     std::to_string(runs[i].numThreads));
        EXPECT_EQ(result.lostShots, pin.lostShots);
        EXPECT_EQ(result.lostPhotons, pin.lostPhotons);
        EXPECT_EQ(result.completedShots + result.lostShots, pin.shots);
    }
}

} // namespace
} // namespace dcmbqc

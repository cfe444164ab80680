/**
 * @file
 * Golden artifact corpus: every `tests/golden/*.dcmb` fixture was
 * written by a past build and checked in, and the current decoder
 * must keep accepting all of them — a codec change that breaks
 * persisted artifacts fails here instead of silently orphaning
 * users' files.
 *
 * The corpus is also the byte contract of the compiler and the
 * execution backends: a fresh compile (and run) of the canonical
 * program must re-encode to exactly the checked-in bytes, and the
 * request's cache key must not move. Only `report.dcmb` is
 * decode-only: it predates pattern retention, so it stays as the
 * proof that such reports still decode, and the regenerator never
 * rewrites it. `report_retained.dcmb` pins a fresh report's bytes.
 *
 * Regenerate with  DCMBQC_REGEN_GOLDEN=1 ./test_golden  after an
 * *intentional*, version-bumped format change (wall-clock fields are
 * zeroed so regenerated bytes are deterministic).
 */

#include <gtest/gtest.h>

#include <cstdlib>
#include <string>
#include <vector>

#include "api/api.hh"
#include "cache/cache_key.hh"
#include "circuit/generators.hh"
#include "mbqc/dependency.hh"
#include "mbqc/pattern_builder.hh"
#include "serialize/codecs.hh"
#include "sim/kernel_config.hh"

#ifndef DCMBQC_GOLDEN_DIR
#define DCMBQC_GOLDEN_DIR "tests/golden"
#endif

namespace dcmbqc
{
namespace
{

std::string
goldenPath(const char *file)
{
    return std::string(DCMBQC_GOLDEN_DIR) + "/" + file;
}

/** The canonical program every fixture derives from. */
Circuit
goldenCircuit()
{
    return makeRandomCliffordTCircuit(4, 10, 7);
}

CompileOptions
goldenOptions()
{
    return CompileOptions().numQpus(2).gridSize(7).seed(3);
}

/** Compile + execute the canonical program, wall-clock zeroed. */
CompileReport
goldenReport()
{
    ExecOptions exec;
    exec.shots = 32;
    exec.seed = 9;
    exec.numThreads = 1;
    auto report = CompilerDriver(goldenOptions())
                      .compileAndExecute(
                          CompileRequest::fromCircuit(
                              goldenCircuit(), "golden"),
                          exec);
    if (!report.ok())
        panic("golden compile failed: ",
              report.status().toString());
    // Zero every wall-clock so regenerated fixtures are
    // byte-deterministic across machines.
    for (StageReport &stage : report->stages)
        stage.millis = 0.0;
    report->totalMillis = 0.0;
    for (ExecResult &execution : report->executions)
        execution.wallMillis = 0.0;
    return std::move(report.value());
}

/**
 * The stabilizer run behind `exec_shot_tree.dcmb`, sampled under
 * whatever kernel config is current — by default the full fast
 * stack, live-photon window included. Wall-clock zeroed for
 * determinism.
 */
ExecResult
goldenStabilizerResult()
{
    ExecOptions options;
    options.backend = "stabilizer";
    options.shots = 64;
    options.seed = 9;
    options.numThreads = 1;
    auto result = executeProgram(
        ExecProgram::fromCircuit(
            makeRandomCliffordCircuit(4, 12, 7), "golden-tree"),
        options);
    if (!result.ok())
        panic("golden stabilizer run failed: ",
              result.status().toString());
    result->wallMillis = 0.0;
    return std::move(result.value());
}

/**
 * The canonical program sampled on mc-loss at a 1 us cycle, slow
 * enough that some shots lose a photon and others complete, so both
 * count keys carry weight. Wall-clock zeroed for determinism.
 */
ExecResult
goldenMcLossResult()
{
    ExecOptions exec;
    exec.backend = "mc-loss";
    exec.shots = 256;
    exec.seed = 9;
    exec.numThreads = 1;
    exec.lossModel.cyclePeriodNs = 1000.0;
    auto report = CompilerDriver(goldenOptions())
                      .compileAndExecute(
                          CompileRequest::fromCircuit(
                              goldenCircuit(), "golden"),
                          exec);
    if (!report.ok())
        panic("golden mc-loss run failed: ",
              report.status().toString());
    ExecResult result = std::move(report->executions[0]);
    result.wallMillis = 0.0;
    return result;
}

/**
 * Fixture writer, enabled by DCMBQC_REGEN_GOLDEN=1. Kept inside the
 * test binary so the corpus can only ever be produced by code that
 * also passes the rest of the suite.
 */
void
regenerate()
{
    const Circuit circuit = goldenCircuit();
    const Pattern pattern = buildPattern(circuit);
    const Digraph deps = realTimeDependencyGraph(pattern);
    const CompileReport report = goldenReport();

    struct Entry
    {
        const char *file;
        std::vector<std::uint8_t> bytes;
    };
    const Entry entries[] = {
        {"circuit.dcmb", encodeCircuitArtifact(circuit)},
        {"pattern.dcmb", encodePatternArtifact(pattern)},
        {"graph.dcmb", encodeGraphArtifact(pattern.graph())},
        {"digraph.dcmb", encodeDigraphArtifact(deps)},
        {"config.dcmb",
         encodeConfigArtifact(goldenOptions().build().value())},
        {"schedule.dcmb",
         encodeScheduleArtifact(report.result().schedule)},
        {"local_schedule.dcmb",
         encodeLocalScheduleArtifact(
             report.result().localSchedules[0])},
        {"report_retained.dcmb", encodeCompileReportArtifact(report)},
        {"exec_result.dcmb",
         encodeExecResultArtifact(report.executions[0])},
        {"exec_shot_tree.dcmb",
         encodeExecResultArtifact(goldenStabilizerResult())},
        {"exec_mc_loss.dcmb",
         encodeExecResultArtifact(goldenMcLossResult())},
    };
    for (const Entry &entry : entries) {
        const Status saved =
            saveArtifactFile(goldenPath(entry.file), entry.bytes);
        ASSERT_TRUE(saved.ok()) << saved.toString();
    }
}

class GoldenCorpus : public ::testing::Test
{
  protected:
    static void
    SetUpTestSuite()
    {
        if (std::getenv("DCMBQC_REGEN_GOLDEN"))
            regenerate();
    }

    std::vector<std::uint8_t>
    load(const char *file)
    {
        auto bytes = loadArtifactFile(goldenPath(file));
        EXPECT_TRUE(bytes.ok())
            << file << ": " << bytes.status().toString()
            << " (missing fixture? regenerate with "
               "DCMBQC_REGEN_GOLDEN=1)";
        return bytes.ok() ? *bytes : std::vector<std::uint8_t>{};
    }
};

TEST_F(GoldenCorpus, CircuitFixtureDecodesToTheExactProgram)
{
    auto decoded = decodeCircuitArtifact(load("circuit.dcmb"));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    const Circuit expected = goldenCircuit();
    ASSERT_EQ(decoded->numGates(), expected.numGates());
    EXPECT_EQ(decoded->numQubits(), expected.numQubits());
    EXPECT_EQ(decoded->name(), expected.name());
    for (std::size_t i = 0; i < expected.numGates(); ++i) {
        EXPECT_EQ(decoded->gates()[i].kind,
                  expected.gates()[i].kind);
        EXPECT_EQ(decoded->gates()[i].q0, expected.gates()[i].q0);
        EXPECT_EQ(decoded->gates()[i].q1, expected.gates()[i].q1);
        EXPECT_DOUBLE_EQ(decoded->gates()[i].angle,
                         expected.gates()[i].angle);
    }
}

TEST_F(GoldenCorpus, PatternFixtureDecodesAndStaysExecutable)
{
    auto decoded = decodePatternArtifact(load("pattern.dcmb"));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    decoded->validate();
    EXPECT_EQ(decoded->numWires(), 4);

    // The decoded pattern still runs on the execution backends and
    // reproduces the original circuit's exact distribution.
    ExecOptions options;
    options.shots = 8;
    options.seed = 2;
    auto from_fixture = executeProgram(
        ExecProgram::fromPattern(*decoded, "fixture"), options);
    ASSERT_TRUE(from_fixture.ok())
        << from_fixture.status().toString();
    auto fresh = executeProgram(
        ExecProgram::fromCircuit(goldenCircuit()), options);
    ASSERT_TRUE(fresh.ok());
    EXPECT_EQ(from_fixture->probabilities, fresh->probabilities);
}

TEST_F(GoldenCorpus, StructuralFixturesDecode)
{
    auto graph = decodeGraphArtifact(load("graph.dcmb"));
    ASSERT_TRUE(graph.ok()) << graph.status().toString();
    EXPECT_GT(graph->numNodes(), 0);

    auto digraph = decodeDigraphArtifact(load("digraph.dcmb"));
    ASSERT_TRUE(digraph.ok()) << digraph.status().toString();
    EXPECT_EQ(digraph->numNodes(), graph->numNodes());

    auto config = decodeConfigArtifact(load("config.dcmb"));
    ASSERT_TRUE(config.ok()) << config.status().toString();
    EXPECT_EQ(config->numQpus, 2);
    EXPECT_EQ(config->grid.size, 7);

    auto schedule = decodeScheduleArtifact(load("schedule.dcmb"));
    ASSERT_TRUE(schedule.ok()) << schedule.status().toString();
    EXPECT_GT(schedule->makespan, 0);

    auto local =
        decodeLocalScheduleArtifact(load("local_schedule.dcmb"));
    ASSERT_TRUE(local.ok()) << local.status().toString();
    EXPECT_GT(local->executionTime(), 0);
}

TEST_F(GoldenCorpus, ReportFixtureDecodesWithExecutions)
{
    auto decoded = decodeCompileReportArtifact(load("report.dcmb"));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->label, "golden");
    ASSERT_TRUE(decoded->distributed.has_value());
    ASSERT_EQ(decoded->executions.size(), 1u);
    const ExecResult &execution = decoded->executions[0];
    EXPECT_EQ(execution.backend, "statevector");
    EXPECT_EQ(execution.shots, 32);
    std::int64_t total = 0;
    for (const auto &[bits, count] : execution.counts)
        total += count;
    EXPECT_EQ(total, execution.shots);
}

TEST_F(GoldenCorpus, ExecResultFixtureDecodes)
{
    auto decoded =
        decodeExecResultArtifact(load("exec_result.dcmb"));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->backend, "statevector");
    EXPECT_EQ(decoded->completedShots, decoded->shots);
    double total = 0.0;
    for (const auto &[bits, p] : decoded->probabilities)
        total += p;
    EXPECT_NEAR(total, 1.0, 1e-9);
}

TEST_F(GoldenCorpus, FreshEncodesMatchTheCheckedInBytes)
{
    const Circuit circuit = goldenCircuit();
    const Pattern pattern = buildPattern(circuit);
    const Digraph deps = realTimeDependencyGraph(pattern);
    const CompileReport report = goldenReport();

    EXPECT_EQ(encodeCircuitArtifact(circuit), load("circuit.dcmb"));
    EXPECT_EQ(encodePatternArtifact(pattern), load("pattern.dcmb"));
    EXPECT_EQ(encodeGraphArtifact(pattern.graph()), load("graph.dcmb"));
    EXPECT_EQ(encodeDigraphArtifact(deps), load("digraph.dcmb"));
    EXPECT_EQ(encodeConfigArtifact(goldenOptions().build().value()),
              load("config.dcmb"));
    EXPECT_EQ(encodeScheduleArtifact(report.result().schedule),
              load("schedule.dcmb"));
    EXPECT_EQ(encodeLocalScheduleArtifact(
                  report.result().localSchedules[0]),
              load("local_schedule.dcmb"));
    EXPECT_EQ(encodeExecResultArtifact(report.executions[0]),
              load("exec_result.dcmb"));
    EXPECT_EQ(encodeExecResultArtifact(goldenMcLossResult()),
              load("exec_mc_loss.dcmb"));
    EXPECT_EQ(encodeCompileReportArtifact(report),
              load("report_retained.dcmb"));
}

TEST_F(GoldenCorpus, RetainedReportReencodesToItsOwnBytes)
{
    // Decode then encode must be the identity on a report that
    // carries every section a compile-and-execute writes, the
    // retained pattern with its embedded X/Z sets included.
    const auto bytes = load("report_retained.dcmb");
    auto decoded = decodeCompileReportArtifact(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    ASSERT_TRUE(decoded->pattern.has_value());
    ASSERT_EQ(decoded->executions.size(), 1u);
    EXPECT_EQ(encodeCompileReportArtifact(*decoded), bytes);
}

TEST_F(GoldenCorpus, McLossFixtureExercisesBothOutcomes)
{
    auto decoded =
        decodeExecResultArtifact(load("exec_mc_loss.dcmb"));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->backend, "mc-loss");
    EXPECT_EQ(decoded->shots, 256);
    EXPECT_GT(decoded->completedShots, 0);
    EXPECT_GT(decoded->lostShots, 0);
    EXPECT_EQ(decoded->counts.at("success"), decoded->completedShots);
    EXPECT_EQ(decoded->counts.at("loss"), decoded->lostShots);
}

TEST_F(GoldenCorpus, ReferenceKernelsReproduceTheFixtures)
{
    // The scalar tableau, the full graph state and the portable
    // amplitude kernel are the oracles of the fast stack: selected
    // in-process, they must sample the same bytes the default stack
    // wrote.
    simKernelConfig() = {/*packedTableau=*/false, /*liveWindow=*/false,
                         SvKernel::Portable};
    const CompileReport report = goldenReport();
    const ExecResult stabilizer = goldenStabilizerResult();
    resetSimKernelConfig();

    EXPECT_EQ(encodeExecResultArtifact(report.executions[0]),
              load("exec_result.dcmb"));
    EXPECT_EQ(encodeExecResultArtifact(stabilizer),
              load("exec_shot_tree.dcmb"));
}

TEST_F(GoldenCorpus, CacheKeyIsPinned)
{
    EXPECT_EQ(compileCacheEpoch, 1u);
    const CacheKeyPair key = computeCacheKey(
        CompileRequest::fromCircuit(goldenCircuit(), "golden"),
        goldenOptions().build().value(), /*baseline=*/false);
    EXPECT_EQ(key.key, 0x4537b5e5cd2239d5ull);
    EXPECT_EQ(key.verifier, 0x4b8586f8eb63b48cull);
}

TEST_F(GoldenCorpus, ShotTreeExecResultFixtureIsByteStable)
{
    // The checked-in fixture was sampled through the shot prefix
    // tree that the live-photon window replaced (hence its name); a
    // fresh window run must reproduce it byte for byte. This is the
    // strongest statement that the kernel rewrites changed nothing
    // observable: same outcomes, same counts, same serialized
    // artifact.
    const auto bytes = load("exec_shot_tree.dcmb");
    auto decoded = decodeExecResultArtifact(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->backend, "stabilizer");
    EXPECT_EQ(decoded->shots, 64);
    EXPECT_EQ(decoded->completedShots, decoded->shots);

    const ExecResult fresh = goldenStabilizerResult();
    EXPECT_EQ(encodeExecResultArtifact(fresh), bytes);
}

} // namespace
} // namespace dcmbqc

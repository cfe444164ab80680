/**
 * @file
 * Tests of the artifact serialization subsystem: binary round trips
 * for every IR type (decode(encode(x)) == x), JSON output sanity,
 * and rejection of truncated / corrupted / version-skewed / wrong-
 * kind artifacts through the Status channel.
 */

#include <gtest/gtest.h>

#include <limits>

#include "api/api.hh"
#include "circuit/generators.hh"
#include "mbqc/dependency.hh"
#include "mbqc/pattern_builder.hh"
#include "serialize/codecs.hh"
#include "serialize/json.hh"
#include "driver_helpers.hh"

namespace dcmbqc
{
namespace
{

// --- Equality helpers ------------------------------------------------------

void
expectCircuitsEqual(const Circuit &a, const Circuit &b)
{
    EXPECT_EQ(a.numQubits(), b.numQubits());
    EXPECT_EQ(a.name(), b.name());
    ASSERT_EQ(a.numGates(), b.numGates());
    for (std::size_t i = 0; i < a.numGates(); ++i) {
        const Gate &ga = a.gates()[i];
        const Gate &gb = b.gates()[i];
        EXPECT_EQ(ga.kind, gb.kind) << i;
        EXPECT_EQ(ga.q0, gb.q0) << i;
        EXPECT_EQ(ga.q1, gb.q1) << i;
        EXPECT_EQ(ga.q2, gb.q2) << i;
        EXPECT_EQ(ga.angle, gb.angle) << i;
    }
}

void
expectGraphsEqual(const Graph &a, const Graph &b)
{
    ASSERT_EQ(a.numNodes(), b.numNodes());
    ASSERT_EQ(a.numEdges(), b.numEdges());
    for (NodeId u = 0; u < a.numNodes(); ++u)
        EXPECT_EQ(a.nodeWeight(u), b.nodeWeight(u)) << u;
    for (EdgeId e = 0; e < a.numEdges(); ++e) {
        EXPECT_EQ(a.edge(e).u, b.edge(e).u) << e;
        EXPECT_EQ(a.edge(e).v, b.edge(e).v) << e;
        EXPECT_EQ(a.edge(e).weight, b.edge(e).weight) << e;
    }
}

void
expectPatternsEqual(const Pattern &a, const Pattern &b)
{
    ASSERT_EQ(a.numNodes(), b.numNodes());
    expectGraphsEqual(a.graph(), b.graph());
    EXPECT_EQ(a.measurementOrder(), b.measurementOrder());
    EXPECT_EQ(a.outputs(), b.outputs());
    for (NodeId u = 0; u < a.numNodes(); ++u) {
        EXPECT_EQ(a.angle(u), b.angle(u)) << u;
        EXPECT_EQ(a.flow(u), b.flow(u)) << u;
        EXPECT_EQ(a.wire(u), b.wire(u)) << u;
    }
}

void
expectLocalSchedulesEqual(const LocalSchedule &a,
                          const LocalSchedule &b)
{
    EXPECT_EQ(a.grid.size, b.grid.size);
    EXPECT_EQ(a.grid.resourceState, b.grid.resourceState);
    EXPECT_EQ(a.grid.plRatio, b.grid.plRatio);
    EXPECT_EQ(a.grid.reservedBoundary, b.grid.reservedBoundary);
    ASSERT_EQ(a.layers.size(), b.layers.size());
    for (std::size_t i = 0; i < a.layers.size(); ++i) {
        EXPECT_EQ(a.layers[i].nodes, b.layers[i].nodes) << i;
        EXPECT_EQ(a.layers[i].computeCells, b.layers[i].computeCells);
        EXPECT_EQ(a.layers[i].routingCells, b.layers[i].routingCells);
    }
    EXPECT_EQ(a.nodeLayer, b.nodeLayer);
    EXPECT_EQ(a.routingFusions, b.routingFusions);
    EXPECT_EQ(a.edgeFusions, b.edgeFusions);
}

CompileReport
compileSomething(bool baseline = false)
{
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(13));
    const auto request =
        CompileRequest::fromCircuit(makeQft(6), "roundtrip");
    auto report = baseline ? driver.compileBaseline(request)
                           : driver.compile(request);
    EXPECT_TRUE(report.ok()) << report.status().toString();
    return std::move(report.value());
}

// --- Round trips -----------------------------------------------------------

TEST(SerializeRoundTrip, CircuitAllGateKinds)
{
    Circuit circuit(4, "every-gate");
    circuit.h(0);
    circuit.x(1);
    circuit.y(2);
    circuit.z(3);
    circuit.s(0);
    circuit.sdg(1);
    circuit.t(2);
    circuit.tdg(3);
    circuit.rx(0, 0.25);
    circuit.ry(1, -1.5);
    circuit.rz(2, 3.14159);
    circuit.cz(0, 1);
    circuit.cnot(1, 2);
    circuit.cp(2, 3, 0.7);
    circuit.rzz(0, 3, -0.3);
    circuit.swap(1, 3);
    circuit.ccx(0, 1, 2);

    auto decoded =
        decodeCircuitArtifact(encodeCircuitArtifact(circuit));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    expectCircuitsEqual(circuit, *decoded);
}

TEST(SerializeRoundTrip, GeneratedCircuits)
{
    for (const Circuit &circuit :
         {makeQft(7), makeQaoaMaxcut(8, 3), makeVqe(5),
          makeRippleCarryAdder(8), makeRandomCircuit(6, 40, 21)}) {
        auto decoded =
            decodeCircuitArtifact(encodeCircuitArtifact(circuit));
        ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
        expectCircuitsEqual(circuit, *decoded);
    }
}

TEST(SerializeRoundTrip, GraphAndDigraph)
{
    const Pattern pattern = buildPattern(makeVqe(5));
    auto graph =
        decodeGraphArtifact(encodeGraphArtifact(pattern.graph()));
    ASSERT_TRUE(graph.ok()) << graph.status().toString();
    expectGraphsEqual(pattern.graph(), *graph);

    const Digraph deps = realTimeDependencyGraph(pattern);
    auto digraph =
        decodeDigraphArtifact(encodeDigraphArtifact(deps));
    ASSERT_TRUE(digraph.ok()) << digraph.status().toString();
    ASSERT_EQ(deps.numNodes(), digraph->numNodes());
    EXPECT_EQ(deps.numArcs(), digraph->numArcs());
    for (NodeId u = 0; u < deps.numNodes(); ++u)
        EXPECT_EQ(deps.successors(u), digraph->successors(u)) << u;
}

TEST(SerializeRoundTrip, PatternWithDependencySets)
{
    const Pattern pattern = buildPattern(makeQft(6));
    auto decoded =
        decodePatternArtifact(encodePatternArtifact(pattern));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    expectPatternsEqual(pattern, *decoded);

    // The decoded pattern must drive the dependency derivation
    // identically (the X/Z sets survive the round trip).
    const auto before = buildDependencyGraphs(pattern);
    const auto after = buildDependencyGraphs(*decoded);
    ASSERT_EQ(before.xDeps.numNodes(), after.xDeps.numNodes());
    EXPECT_EQ(before.xDeps.numArcs(), after.xDeps.numArcs());
    EXPECT_EQ(before.zDeps.numArcs(), after.zDeps.numArcs());
    for (NodeId u = 0; u < before.xDeps.numNodes(); ++u) {
        EXPECT_EQ(before.xDeps.successors(u),
                  after.xDeps.successors(u));
        EXPECT_EQ(before.zDeps.successors(u),
                  after.zDeps.successors(u));
    }
}

TEST(SerializeRoundTrip, ConfigEveryField)
{
    DcMbqcConfig config;
    config.numQpus = 8;
    config.grid.size = 11;
    config.grid.resourceState = ResourceStateType::Ring6;
    config.grid.plRatio = 3;
    config.grid.reservedBoundary = 1;
    config.kmax = 6;
    config.partition.k = 8;
    config.partition.epsilonQ = 0.02;
    config.partition.alphaMax = 1.75;
    config.partition.gamma = 1.05;
    config.partition.maxIterations = 99;
    config.partition.seed = 123456789;
    config.useBdir = false;
    config.bdir.initialTemperature = 4.5;
    config.bdir.coolingRate = 0.9;
    config.bdir.maxIterations = 7;
    config.bdir.seed = 987654321;
    config.order = PlacementOrder::DependencyAwareRcm;

    auto decoded = decodeConfigArtifact(encodeConfigArtifact(config));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->numQpus, config.numQpus);
    EXPECT_EQ(decoded->grid.size, config.grid.size);
    EXPECT_EQ(decoded->grid.resourceState, config.grid.resourceState);
    EXPECT_EQ(decoded->grid.plRatio, config.grid.plRatio);
    EXPECT_EQ(decoded->grid.reservedBoundary,
              config.grid.reservedBoundary);
    EXPECT_EQ(decoded->kmax, config.kmax);
    EXPECT_EQ(decoded->partition.k, config.partition.k);
    EXPECT_EQ(decoded->partition.epsilonQ, config.partition.epsilonQ);
    EXPECT_EQ(decoded->partition.alphaMax, config.partition.alphaMax);
    EXPECT_EQ(decoded->partition.gamma, config.partition.gamma);
    EXPECT_EQ(decoded->partition.maxIterations,
              config.partition.maxIterations);
    EXPECT_EQ(decoded->partition.seed, config.partition.seed);
    EXPECT_EQ(decoded->useBdir, config.useBdir);
    EXPECT_EQ(decoded->bdir.initialTemperature,
              config.bdir.initialTemperature);
    EXPECT_EQ(decoded->bdir.coolingRate, config.bdir.coolingRate);
    EXPECT_EQ(decoded->bdir.maxIterations, config.bdir.maxIterations);
    EXPECT_EQ(decoded->bdir.seed, config.bdir.seed);
    EXPECT_EQ(decoded->order, config.order);
}

TEST(SerializeRoundTrip, LocalScheduleAndSchedule)
{
    const auto report = compileSomething(/*baseline=*/true);
    const LocalSchedule &schedule = report.baselineResult().schedule;
    auto decoded = decodeLocalScheduleArtifact(
        encodeLocalScheduleArtifact(schedule));
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    expectLocalSchedulesEqual(schedule, *decoded);

    const auto dc = compileSomething();
    auto sched = decodeScheduleArtifact(
        encodeScheduleArtifact(dc.result().schedule));
    ASSERT_TRUE(sched.ok()) << sched.status().toString();
    EXPECT_EQ(sched->mainStart, dc.result().schedule.mainStart);
    EXPECT_EQ(sched->syncStart, dc.result().schedule.syncStart);
    EXPECT_EQ(sched->makespan, dc.result().schedule.makespan);
}

TEST(SerializeRoundTrip, CompileReportDistributedAndBaseline)
{
    for (bool baseline : {false, true}) {
        const CompileReport report = compileSomething(baseline);
        auto decoded = decodeCompileReportArtifact(
            encodeCompileReportArtifact(report));
        ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
        EXPECT_EQ(decoded->label, report.label);
        EXPECT_EQ(decoded->totalMillis, report.totalMillis);
        EXPECT_EQ(decoded->cacheHit, report.cacheHit);
        EXPECT_EQ(decoded->cacheKey, report.cacheKey);
        EXPECT_EQ(decoded->cacheVerifier, report.cacheVerifier);
        EXPECT_EQ(decoded->warnings, report.warnings);
        ASSERT_EQ(decoded->stages.size(), report.stages.size());
        for (std::size_t i = 0; i < report.stages.size(); ++i) {
            EXPECT_EQ(decoded->stages[i].pass,
                      report.stages[i].pass);
            EXPECT_EQ(decoded->stages[i].millis,
                      report.stages[i].millis);
            EXPECT_EQ(decoded->stages[i].note,
                      report.stages[i].note);
            EXPECT_EQ(decoded->stages[i].status.code(),
                      report.stages[i].status.code());
        }
        ASSERT_EQ(decoded->distributed.has_value(),
                  report.distributed.has_value());
        ASSERT_EQ(decoded->baseline.has_value(),
                  report.baseline.has_value());
        if (report.distributed) {
            const DcMbqcResult &a = *report.distributed;
            const DcMbqcResult &b = *decoded->distributed;
            EXPECT_EQ(a.partition.assignment(),
                      b.partition.assignment());
            EXPECT_EQ(a.partition.numParts(), b.partition.numParts());
            EXPECT_EQ(a.partitionModularity, b.partitionModularity);
            EXPECT_EQ(a.partitionImbalance, b.partitionImbalance);
            EXPECT_EQ(a.numConnectors, b.numConnectors);
            EXPECT_EQ(a.metrics.tauLocal, b.metrics.tauLocal);
            EXPECT_EQ(a.metrics.tauRemote, b.metrics.tauRemote);
            EXPECT_EQ(a.metrics.makespan, b.metrics.makespan);
            EXPECT_EQ(a.schedule.mainStart, b.schedule.mainStart);
            EXPECT_EQ(a.schedule.syncStart, b.schedule.syncStart);
            ASSERT_EQ(a.localSchedules.size(),
                      b.localSchedules.size());
            for (std::size_t i = 0; i < a.localSchedules.size(); ++i)
                expectLocalSchedulesEqual(a.localSchedules[i],
                                          b.localSchedules[i]);
        }
        if (report.baseline) {
            expectLocalSchedulesEqual(report.baseline->schedule,
                                      decoded->baseline->schedule);
            EXPECT_EQ(report.baseline->lifetime.tauFusee,
                      decoded->baseline->lifetime.tauFusee);
            EXPECT_EQ(report.baseline->lifetime.tauMeasuree,
                      decoded->baseline->lifetime.tauMeasuree);
        }
    }
}

// --- Encode buffers --------------------------------------------------------

/** An encoded artifact held in exactly its own bytes, and valid. */
void
expectExactlySized(const char *kind,
                   const std::vector<std::uint8_t> &artifact)
{
    EXPECT_EQ(artifact.capacity(), artifact.size()) << kind;
    EXPECT_TRUE(openArtifact(artifact).ok()) << kind;
}

TEST(SerializeEncode, EveryArtifactKindIsWrittenIntoItsExactSize)
{
    // An encode measures the payload, then writes header, payload
    // and checksum into one buffer of that size: no spare capacity,
    // and no growth while it is written.
    const Circuit circuit = makeQft(6);
    const Pattern pattern = buildPattern(circuit);
    const Digraph deps = realTimeDependencyGraph(pattern);
    const CompileReport report = compileSomething();
    const CompileReport baseline = compileSomething(/*baseline=*/true);
    ExecResult result;
    result.backend = "statevector";
    result.label = "exact";
    result.shots = result.completedShots = 8;
    result.numWires = 2;
    result.counts = {{"01", 3}, {"10", 5}};
    result.probabilities = {{"01", 0.375}, {"10", 0.625}};
    NoiseConfig noise;
    noise.add("fusion", {{"failure_rate", 0.02}});

    expectExactlySized("circuit", encodeCircuitArtifact(circuit));
    expectExactlySized("graph", encodeGraphArtifact(pattern.graph()));
    expectExactlySized("digraph", encodeDigraphArtifact(deps));
    expectExactlySized("pattern", encodePatternArtifact(pattern));
    expectExactlySized("config", encodeConfigArtifact(DcMbqcConfig{}));
    expectExactlySized("local-schedule",
                       encodeLocalScheduleArtifact(
                           baseline.baselineResult().schedule));
    expectExactlySized("schedule",
                       encodeScheduleArtifact(report.result().schedule));
    expectExactlySized("compile-report",
                       encodeCompileReportArtifact(report));
    expectExactlySized("baseline compile-report",
                       encodeCompileReportArtifact(baseline));
    expectExactlySized("exec-result", encodeExecResultArtifact(result));
    expectExactlySized("noise-config", encodeNoiseConfigArtifact(noise));
}

TEST(SerializeEncode, SealedPayloadEqualsTheWrittenOne)
{
    // sealArtifact (a payload already in hand) and the two-pass
    // encode write the same envelope, and it fills its buffer.
    const Circuit circuit = makeQft(5);
    BinaryWriter writer;
    encodeCircuit(writer, circuit);
    const std::vector<std::uint8_t> sealed =
        sealArtifact(ArtifactKind::Circuit, writer.bytes());
    EXPECT_EQ(sealed, encodeCircuitArtifact(circuit));
    EXPECT_EQ(sealed.capacity(), sealed.size());

    BinaryWriter measure = BinaryWriter::measuring();
    encodeCircuit(measure, circuit);
    EXPECT_EQ(measure.size(), writer.size());
    EXPECT_TRUE(measure.bytes().empty());
}

TEST(SerializeEncodeDeathTest, PayloadOfAnotherSizeThanBegunPanics)
{
    // An encoder that writes other bytes than it measured is a bug.
    const std::uint8_t payload[5] = {1, 2, 3, 4, 5};
    for (const std::size_t written : {std::size_t(3), std::size_t(5)}) {
        EXPECT_DEATH(
            {
                BinaryWriter writer = beginArtifact(ArtifactKind::Graph, 4);
                writer.writeBytes(payload, written);
                sealArtifact(std::move(writer));
            },
            "artifact buffer")
            << written;
    }
}

// --- Rejection paths -------------------------------------------------------

TEST(SerializeReject, BadMagic)
{
    auto bytes = encodeCircuitArtifact(makeQft(4));
    bytes[0] = 'X';
    auto decoded = decodeCircuitArtifact(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(decoded.status().message().find("magic"),
              std::string::npos);
}

TEST(SerializeReject, UnsupportedVersion)
{
    auto bytes = encodeCircuitArtifact(makeQft(4));
    bytes[4] = 0xff; // version low byte
    bytes[5] = 0x7f;
    auto decoded = decodeCircuitArtifact(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().message().find("version"),
              std::string::npos);
}

TEST(SerializeReject, TruncatedBuffer)
{
    auto bytes = encodeCircuitArtifact(makeQft(4));
    bytes.resize(bytes.size() / 2);
    EXPECT_FALSE(decodeCircuitArtifact(bytes).ok());
    bytes.resize(3);
    EXPECT_FALSE(decodeCircuitArtifact(bytes).ok());
    EXPECT_FALSE(decodeCircuitArtifact({}).ok());
}

TEST(SerializeReject, CorruptedPayloadFailsChecksum)
{
    auto bytes = encodeCircuitArtifact(makeQft(4));
    bytes[bytes.size() / 2] ^= 0x5a;
    auto decoded = decodeCircuitArtifact(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().message().find("checksum"),
              std::string::npos);
}

TEST(SerializeReject, KindMismatch)
{
    const auto bytes = encodeCircuitArtifact(makeQft(4));
    auto decoded = decodePatternArtifact(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().message().find("kind"),
              std::string::npos);
}

TEST(SerializeReject, PatternDependencyTamperDetected)
{
    // Tamper *inside* the payload and re-seal with a valid
    // checksum: the envelope check passes, but the embedded X/Z
    // dependency sets (the trailing sections of the payload) no
    // longer agree with the flow-derived ones, so the deep
    // consistency check must reject the artifact.
    const Pattern pattern = buildPattern(makeQft(4));
    BinaryWriter writer;
    encodePattern(writer, pattern);
    std::vector<std::uint8_t> payload = writer.take();
    payload[payload.size() - 3] ^= 0x01;
    const auto resealed =
        sealArtifact(ArtifactKind::Pattern, payload);
    EXPECT_FALSE(decodePatternArtifact(resealed).ok());
}

TEST(SerializeReject, ReportWithoutResultPayload)
{
    // A handcrafted report whose flags byte claims neither a
    // distributed nor a baseline result must be rejected, not
    // panic later in an accessor.
    BinaryWriter writer;
    writer.writeString("no-result");
    writer.writeU8(0); // flags: no payload
    const auto bytes =
        sealArtifact(ArtifactKind::CompileReport, writer.bytes());
    auto decoded = decodeCompileReportArtifact(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().message().find("flags"),
              std::string::npos);
}

TEST(SerializeReject, TrailingBytes)
{
    BinaryWriter writer;
    encodeCircuit(writer, makeQft(4));
    writer.writeU32(0xdeadbeef);
    const auto bytes =
        sealArtifact(ArtifactKind::Circuit, writer.bytes());
    auto decoded = decodeCircuitArtifact(bytes);
    ASSERT_FALSE(decoded.ok());
    EXPECT_NE(decoded.status().message().find("trailing"),
              std::string::npos);
}

/**
 * A checksum-valid 3-qubit circuit artifact holding `h q0` and then
 * `gate`, written field by field because Circuit::append refuses a
 * malformed gate.
 */
std::vector<std::uint8_t>
circuitArtifactWith(const Gate &gate)
{
    Gate h;
    h.kind = GateKind::H;
    h.q0 = 0;
    BinaryWriter writer;
    writer.writeI32(3);
    writer.writeString("crafted");
    writer.writeU32(2);
    for (const Gate &g : {h, gate}) {
        writer.writeU8(static_cast<std::uint8_t>(g.kind));
        writer.writeI32(g.q0);
        writer.writeI32(g.q1);
        writer.writeI32(g.q2);
        writer.writeF64(g.angle);
    }
    return sealArtifact(ArtifactKind::Circuit, writer.bytes());
}

TEST(SerializeReject, GateWithRepeatedQubits)
{
    // Each gate addresses qubits in range, so only the distinctness
    // check stands between it and Circuit::append's assertion.
    Gate cz;
    cz.kind = GateKind::CZ;
    cz.q0 = 2;
    cz.q1 = 2;
    Gate ccx;
    ccx.kind = GateKind::CCX;
    ccx.q0 = 0;
    ccx.q1 = 1;
    ccx.q2 = 0;
    for (const Gate &gate : {cz, ccx}) {
        auto decoded = decodeCircuitArtifact(circuitArtifactWith(gate));
        ASSERT_FALSE(decoded.ok()) << gate.toString();
        EXPECT_EQ(decoded.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(decoded.status().message().find("gate 1 (" +
                                                  gate.toString()),
                  std::string::npos)
            << decoded.status().message();
    }

    // The same bytes with distinct qubits decode.
    ccx.q2 = 2;
    EXPECT_TRUE(decodeCircuitArtifact(circuitArtifactWith(ccx)).ok());
}

TEST(SerializeReject, CircuitGateWithNonFiniteAngle)
{
    // NaN fails every ordered comparison: decoded, it compiled, the
    // stabilizer backend read it as 0 quarter turns and statevector
    // aborted on a zero-probability branch.
    for (const double angle : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity(),
                               -std::numeric_limits<double>::infinity()}) {
        auto decoded = decodeCircuitArtifact(
            encodeCircuitArtifact(test::rzCircuit(angle)));
        ASSERT_FALSE(decoded.ok()) << angle;
        EXPECT_EQ(decoded.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(decoded.status().message().find("gate 2 ("),
                  std::string::npos)
            << decoded.status().message();
    }
    EXPECT_TRUE(decodeCircuitArtifact(
                    encodeCircuitArtifact(test::rzCircuit(0.5)))
                    .ok());
}

TEST(SerializeReject, PatternNodeWithNonFiniteAngle)
{
    const Pattern pattern = buildPattern(test::rzCircuit(0.5));
    const NodeId u = pattern.measurementOrder().back();
    for (const double angle : {std::numeric_limits<double>::quiet_NaN(),
                               std::numeric_limits<double>::infinity()}) {
        auto decoded = decodePatternArtifact(encodePatternArtifact(
            test::withNodeAngle(pattern, u, angle)));
        ASSERT_FALSE(decoded.ok()) << angle;
        EXPECT_EQ(decoded.status().code(), StatusCode::InvalidArgument);
        EXPECT_NE(decoded.status().message().find(
                      "node " + std::to_string(u) + " measures"),
                  std::string::npos)
            << decoded.status().message();
    }
}

// --- JSON ------------------------------------------------------------------

TEST(SerializeJson, WritersEmitKeyFields)
{
    const Circuit circuit = makeQft(4);
    const std::string cjson = toJson(circuit);
    EXPECT_NE(cjson.find("\"artifact\": \"circuit\""),
              std::string::npos);
    EXPECT_NE(cjson.find("\"numQubits\": 4"), std::string::npos);

    const Pattern pattern = buildPattern(circuit);
    const std::string pjson = toJson(pattern);
    EXPECT_NE(pjson.find("\"xDependencies\""), std::string::npos);
    EXPECT_NE(pjson.find("\"zDependencies\""), std::string::npos);

    const auto report = compileSomething();
    const std::string rjson = toJson(report);
    EXPECT_NE(rjson.find("\"artifact\": \"compile-report\""),
              std::string::npos);
    EXPECT_NE(rjson.find("\"distributed\""), std::string::npos);
    EXPECT_NE(rjson.find("\"requiredLifetime\""), std::string::npos);
}

TEST(SerializeJson, EscapesControlCharacters)
{
    EXPECT_EQ(jsonEscape("a\"b\\c\nd"), "a\\\"b\\\\c\\nd");
    EXPECT_EQ(jsonEscape(std::string(1, '\x01')), "\\u0001");
}

// --- File IO ---------------------------------------------------------------

TEST(SerializeFile, SaveLoadRoundTrip)
{
    const std::string path =
        ::testing::TempDir() + "serialize_roundtrip.dcmbqc";
    const Circuit circuit = makeVqe(5);
    const auto bytes = encodeCircuitArtifact(circuit);
    ASSERT_TRUE(saveArtifactFile(path, bytes).ok());
    auto loaded = loadArtifactFile(path);
    ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
    EXPECT_EQ(*loaded, bytes);
    auto decoded = decodeCircuitArtifact(*loaded);
    ASSERT_TRUE(decoded.ok());
    expectCircuitsEqual(circuit, *decoded);
    std::remove(path.c_str());
}

TEST(SerializeFile, MissingFileIsStatusNotAbort)
{
    auto loaded = loadArtifactFile("/nonexistent/nope.dcmbqc");
    ASSERT_FALSE(loaded.ok());
    EXPECT_EQ(loaded.status().code(), StatusCode::InvalidArgument);
}

TEST(SerializeFile, LoadsEmptyTinyAndLargeFilesWhole)
{
    const std::string path =
        ::testing::TempDir() + "serialize_sizes.bin";
    for (const std::size_t size :
         {std::size_t(0), std::size_t(1), std::size_t(3) << 19}) {
        SCOPED_TRACE(size);
        std::vector<std::uint8_t> bytes(size);
        for (std::size_t i = 0; i < size; ++i)
            bytes[i] = static_cast<std::uint8_t>(i * 131 + 7);
        ASSERT_TRUE(saveArtifactFile(path, bytes).ok());
        auto loaded = loadArtifactFile(path);
        ASSERT_TRUE(loaded.ok()) << loaded.status().toString();
        EXPECT_EQ(*loaded, bytes);
    }
    std::remove(path.c_str());
}

TEST(SerializeFile, DirectoryIsStatusNotAbort)
{
    auto loaded = loadArtifactFile(::testing::TempDir());
    ASSERT_FALSE(loaded.ok());
    EXPECT_NE(loaded.status().message().find(::testing::TempDir()),
              std::string::npos);
}

} // namespace
} // namespace dcmbqc

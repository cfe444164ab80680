#include "serialize/codecs.hh"

#include <algorithm>
#include <cmath>
#include <type_traits>
#include <vector>

#include "mbqc/dependency.hh"
#include "noise/mechanism.hh"

namespace dcmbqc
{

namespace
{

// --- Shared helpers --------------------------------------------------------

Status
statusFromCode(StatusCode code, std::string message)
{
    switch (code) {
      case StatusCode::Ok:
        return Status::okStatus();
      case StatusCode::InvalidArgument:
        return Status::invalidArgument(std::move(message));
      case StatusCode::InvalidConfig:
        return Status::invalidConfig(std::move(message));
      case StatusCode::FailedPrecondition:
        return Status::failedPrecondition(std::move(message));
      case StatusCode::Internal:
        return Status::internal(std::move(message));
      case StatusCode::Cancelled:
        return Status::cancelled(std::move(message));
      case StatusCode::DeadlineExceeded:
        return Status::deadlineExceeded(std::move(message));
      case StatusCode::ResourceExhausted:
        return Status::resourceExhausted(std::move(message));
      case StatusCode::Unavailable:
        return Status::unavailable(std::move(message));
    }
    return Status::internal(std::move(message));
}

} // namespace

void
encodeStatus(BinaryWriter &writer, const Status &status)
{
    writer.writeU8(static_cast<std::uint8_t>(status.code()));
    writer.writeString(status.message());
}

Status
decodeStatus(BinaryReader &reader)
{
    const std::uint8_t code = reader.readU8();
    std::string message = reader.readString();
    if (code > static_cast<std::uint8_t>(StatusCode::Unavailable)) {
        reader.fail("invalid status code tag " + std::to_string(code));
        return Status::okStatus();
    }
    return statusFromCode(static_cast<StatusCode>(code),
                          std::move(message));
}

namespace
{

void
encodeGridSpec(BinaryWriter &writer, const GridSpec &grid)
{
    writer.writeI32(grid.size);
    writer.writeU8(static_cast<std::uint8_t>(grid.resourceState));
    writer.writeI32(grid.plRatio);
    writer.writeI32(grid.reservedBoundary);
}

GridSpec
decodeGridSpec(BinaryReader &reader)
{
    GridSpec grid;
    grid.size = reader.readI32();
    const std::uint8_t state = reader.readU8();
    if (state > static_cast<std::uint8_t>(ResourceStateType::Star7))
        reader.fail("invalid resource-state tag " +
                    std::to_string(state));
    else
        grid.resourceState = static_cast<ResourceStateType>(state);
    grid.plRatio = reader.readI32();
    grid.reservedBoundary = reader.readI32();
    return grid;
}

void
encodePartitioning(BinaryWriter &writer, const Partitioning &part)
{
    writer.writeI32(part.numParts());
    writer.writeI32Vector(part.assignment());
}

Partitioning
decodePartitioning(BinaryReader &reader)
{
    static_assert(std::is_same_v<std::int32_t, int>,
                  "the decoded assignment moves into a Partitioning");
    const int k = reader.readI32();
    std::vector<std::int32_t> assignment = reader.readI32Vector();
    if (!reader.ok())
        return {};
    if (k < 1) {
        reader.fail("partition k must be >= 1, got " +
                    std::to_string(k));
        return {};
    }
    for (int p : assignment) {
        if (p < 0 || p >= k) {
            reader.fail("partition assignment " + std::to_string(p) +
                        " outside [0, " + std::to_string(k) + ")");
            return {};
        }
    }
    return Partitioning(std::move(assignment), k);
}

void
encodeMetrics(BinaryWriter &writer, const ScheduleMetrics &metrics)
{
    writer.writeI32(metrics.tauLocal);
    writer.writeI32(metrics.tauRemote);
    writer.writeI32(metrics.makespan);
}

ScheduleMetrics
decodeMetrics(BinaryReader &reader)
{
    ScheduleMetrics metrics;
    metrics.tauLocal = reader.readI32();
    metrics.tauRemote = reader.readI32();
    metrics.makespan = reader.readI32();
    return metrics;
}

void
encodeDcResult(BinaryWriter &writer, const DcMbqcResult &result)
{
    encodePartitioning(writer, result.partition);
    writer.writeF64(result.partitionModularity);
    writer.writeF64(result.partitionImbalance);
    writer.writeI32(result.numConnectors);
    writer.writeU32(
        static_cast<std::uint32_t>(result.localSchedules.size()));
    for (const auto &local : result.localSchedules)
        encodeLocalSchedule(writer, local);
    encodeSchedule(writer, result.schedule);
    encodeMetrics(writer, result.metrics);
}

DcMbqcResult
decodeDcResult(BinaryReader &reader)
{
    DcMbqcResult result;
    result.partition = decodePartitioning(reader);
    result.partitionModularity = reader.readF64();
    result.partitionImbalance = reader.readF64();
    result.numConnectors = reader.readI32();
    const std::uint32_t locals = reader.readCount(1);
    for (std::uint32_t i = 0; i < locals && reader.ok(); ++i)
        result.localSchedules.push_back(decodeLocalSchedule(reader));
    result.schedule = decodeSchedule(reader);
    result.metrics = decodeMetrics(reader);
    return result;
}

void
encodeBaselineResult(BinaryWriter &writer,
                     const BaselineResult &result)
{
    encodeLocalSchedule(writer, result.schedule);
    writer.writeI32(result.lifetime.tauFusee);
    writer.writeI32(result.lifetime.tauMeasuree);
}

BaselineResult
decodeBaselineResult(BinaryReader &reader)
{
    BaselineResult result;
    result.schedule = decodeLocalSchedule(reader);
    result.lifetime.tauFusee = reader.readI32();
    result.lifetime.tauMeasuree = reader.readI32();
    return result;
}

/** Write the flow-derived X or Z set in the digraph encoding. */
void
encodeDependencySet(BinaryWriter &writer, const Pattern &pattern,
                    bool z_set)
{
    std::vector<NodeId> successors;
    writer.writeI32(pattern.numNodes());
    for (NodeId m = 0; m < pattern.numNodes(); ++m) {
        dependencySuccessors(pattern, m, z_set, successors);
        writer.writeI32Vector(successors);
    }
}

/**
 * Read an embedded X or Z set (digraph encoding) and compare each
 * successor list with the flow-derived one as it is read. False once
 * the reader has failed, a mismatch included.
 */
bool
checkDependencySet(BinaryReader &reader, const Pattern &pattern,
                   bool z_set)
{
    const NodeId n = reader.readI32();
    if (!reader.ok())
        return false;
    if (n < 0 ||
        static_cast<std::uint64_t>(n) * 4 > reader.remaining()) {
        reader.fail("digraph node count " + std::to_string(n) +
                    " is invalid for the payload size");
        return false;
    }
    std::vector<NodeId> stored, derived;
    bool same = n == pattern.numNodes();
    for (NodeId m = 0; same && m < n; ++m) {
        reader.readI32Vector(stored);
        if (!reader.ok())
            return false;
        dependencySuccessors(pattern, m, z_set, derived);
        if (stored == derived)
            continue;
        same = false;
        // An arc that leaves the graph keeps the digraph codec's
        // diagnosis.
        for (NodeId v : stored) {
            if (v < 0 || v >= n) {
                reader.fail("digraph arc " + std::to_string(m) +
                            " -> " + std::to_string(v) +
                            " is out of range");
                return false;
            }
        }
    }
    if (!same)
        reader.fail("embedded X/Z dependency sets disagree with the "
                    "decoded causal flow");
    return same;
}

/**
 * True when the X dependencies (m -> f(m), both measured) form no
 * cycle. Each node has at most one X successor, so the walk from
 * each node is a chain: it is cyclic exactly when it meets a node of
 * its own walk.
 */
bool
xDependenciesAcyclic(const Pattern &pattern)
{
    const NodeId n = pattern.numNodes();
    const auto next = [&pattern](NodeId u) {
        const NodeId succ = pattern.flow(u);
        return succ != invalidNode && !pattern.isOutput(succ)
                   ? succ
                   : invalidNode;
    };
    // 0: unvisited, 1: on the current walk, 2: on a finished walk.
    std::vector<std::uint8_t> state(n, 0);
    for (NodeId start = 0; start < n; ++start) {
        NodeId u = start;
        while (u != invalidNode && state[u] == 0) {
            state[u] = 1;
            u = next(u);
        }
        if (u != invalidNode && state[u] == 1)
            return false;
        for (NodeId v = start; v != u; v = next(v))
            state[v] = 2;
    }
    return true;
}

template <typename T, typename Decode>
Expected<T>
decodeViewAs(ArtifactKind kind, const ArtifactView &view, Decode decode)
{
    if (view.kind != kind)
        return Status::invalidArgument(
            std::string("artifact kind mismatch: expected ") +
            artifactKindName(kind) + ", found " +
            artifactKindName(view.kind));
    BinaryReader reader(view.payload, view.payloadSize);
    T value = decode(reader);
    if (!reader.ok())
        return reader.status();
    if (!reader.atEnd())
        return Status::invalidArgument(
            "artifact corrupted: " +
            std::to_string(reader.remaining()) +
            " trailing payload bytes");
    return value;
}

template <typename T, typename Decode>
Expected<T>
decodeArtifactAs(ArtifactKind kind,
                 const std::vector<std::uint8_t> &bytes,
                 Decode decode)
{
    auto view = openArtifact(bytes);
    if (!view.ok())
        return view.status();
    return decodeViewAs<T>(kind, *view, decode);
}

/**
 * Run `encode` twice: once against a measuring writer, which only
 * adds up the payload's size, then straight into one buffer sized for
 * header, payload and checksum, which is sealed in place. No payload
 * byte is copied and the artifact's capacity is its size.
 */
template <typename Encode>
std::vector<std::uint8_t>
sealPayload(ArtifactKind kind, Encode encode)
{
    BinaryWriter measure = BinaryWriter::measuring();
    encode(measure);
    BinaryWriter writer = beginArtifact(kind, measure.size());
    encode(writer);
    return sealArtifact(std::move(writer));
}

} // namespace

// --- Circuit ---------------------------------------------------------------

void
encodeCircuit(BinaryWriter &writer, const Circuit &circuit)
{
    writer.writeI32(circuit.numQubits());
    writer.writeString(circuit.name());
    writer.writeU32(static_cast<std::uint32_t>(circuit.numGates()));
    for (const Gate &gate : circuit.gates()) {
        writer.writeU8(static_cast<std::uint8_t>(gate.kind));
        writer.writeI32(gate.q0);
        writer.writeI32(gate.q1);
        writer.writeI32(gate.q2);
        writer.writeF64(gate.angle);
    }
}

Circuit
decodeCircuit(BinaryReader &reader)
{
    const int qubits = reader.readI32();
    std::string name = reader.readString();
    if (!reader.ok())
        return Circuit(1);
    if (qubits < 1) {
        reader.fail("circuit qubit count must be >= 1, got " +
                    std::to_string(qubits));
        return Circuit(1);
    }
    Circuit circuit(qubits, std::move(name));
    const std::uint32_t gates = reader.readCount(21);
    for (std::uint32_t i = 0; i < gates && reader.ok(); ++i) {
        Gate gate;
        const std::uint8_t kind = reader.readU8();
        gate.q0 = reader.readI32();
        gate.q1 = reader.readI32();
        gate.q2 = reader.readI32();
        gate.angle = reader.readF64();
        if (!reader.ok())
            break;
        if (kind > static_cast<std::uint8_t>(GateKind::CCX)) {
            reader.fail("invalid gate kind tag " +
                        std::to_string(kind));
            break;
        }
        gate.kind = static_cast<GateKind>(kind);
        const QubitId used[3] = {gate.q0, gate.q1, gate.q2};
        bool valid = true;
        for (int q = 0; q < gate.arity(); ++q)
            valid &= used[q] >= 0 && used[q] < qubits;
        if (!valid) {
            reader.fail("gate " + std::to_string(i) +
                        " addresses a qubit outside [0, " +
                        std::to_string(qubits) + ")");
            break;
        }
        const bool repeated =
            (gate.arity() >= 2 && gate.q0 == gate.q1) ||
            (gate.arity() >= 3 &&
             (gate.q2 == gate.q0 || gate.q2 == gate.q1));
        if (repeated) {
            reader.fail("gate " + std::to_string(i) + " (" +
                        gate.toString() + ") repeats a qubit");
            break;
        }
        if (!std::isfinite(gate.angle)) {
            reader.fail("gate " + std::to_string(i) + " (" +
                        gate.toString() + ") has a non-finite angle");
            break;
        }
        circuit.append(gate);
    }
    return circuit;
}

// --- Graph / Digraph -------------------------------------------------------

void
encodeGraph(BinaryWriter &writer, const Graph &graph)
{
    writer.writeI32(graph.numNodes());
    for (NodeId u = 0; u < graph.numNodes(); ++u)
        writer.writeI32(graph.nodeWeight(u));
    writer.writeU32(static_cast<std::uint32_t>(graph.numEdges()));
    for (const Edge &e : graph.edges()) {
        writer.writeI32(e.u);
        writer.writeI32(e.v);
        writer.writeI32(e.weight);
    }
}

Graph
decodeGraph(BinaryReader &reader)
{
    const NodeId n = reader.readI32();
    if (!reader.ok())
        return {};
    if (n < 0 ||
        static_cast<std::uint64_t>(n) * 4 > reader.remaining()) {
        reader.fail("graph node count " + std::to_string(n) +
                    " is invalid for the payload size");
        return {};
    }
    std::vector<int> weights(n);
    for (NodeId u = 0; u < n; ++u)
        weights[u] = reader.readI32();
    std::vector<Edge> edges(reader.readCount(12));
    for (std::size_t i = 0; i < edges.size(); ++i) {
        Edge &e = edges[i];
        e.u = reader.readI32();
        e.v = reader.readI32();
        e.weight = reader.readI32();
        if (e.u < 0 || e.u >= n || e.v < 0 || e.v >= n || e.u == e.v) {
            reader.fail("graph edge " + std::to_string(i) + " (" +
                        std::to_string(e.u) + ", " +
                        std::to_string(e.v) + ") is invalid for " +
                        std::to_string(n) + " nodes");
            return {};
        }
    }
    if (!reader.ok())
        return {};
    return Graph(std::move(weights), std::move(edges));
}

void
encodeDigraph(BinaryWriter &writer, const Digraph &digraph)
{
    writer.writeI32(digraph.numNodes());
    for (NodeId u = 0; u < digraph.numNodes(); ++u) {
        const Digraph::Nodes succ = digraph.successors(u);
        writer.writeU32(static_cast<std::uint32_t>(succ.size()));
        for (NodeId v : succ)
            writer.writeI32(v);
    }
}

Digraph
decodeDigraph(BinaryReader &reader)
{
    const NodeId n = reader.readI32();
    if (!reader.ok())
        return {};
    if (n < 0 ||
        static_cast<std::uint64_t>(n) * 4 > reader.remaining()) {
        reader.fail("digraph node count " + std::to_string(n) +
                    " is invalid for the payload size");
        return {};
    }
    std::vector<Arc> arcs;
    std::vector<std::int32_t> succ;
    for (NodeId u = 0; u < n && reader.ok(); ++u) {
        reader.readI32Vector(succ);
        for (NodeId v : succ) {
            if (v < 0 || v >= n) {
                reader.fail("digraph arc " + std::to_string(u) +
                            " -> " + std::to_string(v) +
                            " is out of range");
                return {};
            }
            arcs.push_back({u, v});
        }
    }
    return Digraph(n, arcs);
}

// --- Pattern ---------------------------------------------------------------

void
encodePattern(BinaryWriter &writer, const Pattern &pattern)
{
    encodeGraph(writer, pattern.graph());
    // Angles, flow and wires in the vector encoding (u32 count, then
    // the elements), written node by node so no copy of them is made.
    const NodeId n = pattern.numNodes();
    writer.writeU32(static_cast<std::uint32_t>(n));
    for (NodeId u = 0; u < n; ++u)
        writer.writeF64(pattern.angle(u));
    writer.writeU32(static_cast<std::uint32_t>(n));
    for (NodeId u = 0; u < n; ++u)
        writer.writeI32(pattern.flow(u));
    writer.writeU32(static_cast<std::uint32_t>(n));
    for (NodeId u = 0; u < n; ++u)
        writer.writeI32(pattern.wire(u));
    writer.writeI32Vector(pattern.measurementOrder());
    writer.writeI32Vector(pattern.outputs());

    encodeDependencySet(writer, pattern, /*z_set=*/false);
    encodeDependencySet(writer, pattern, /*z_set=*/true);
}

Pattern
decodePattern(BinaryReader &reader)
{
    Graph graph = decodeGraph(reader);
    std::vector<double> angles = reader.readF64Vector();
    std::vector<std::int32_t> flow = reader.readI32Vector();
    std::vector<std::int32_t> wires = reader.readI32Vector();
    std::vector<std::int32_t> order = reader.readI32Vector();
    std::vector<std::int32_t> outputs = reader.readI32Vector();
    if (!reader.ok())
        return {};

    const NodeId n = graph.numNodes();
    const auto sized = [n](const auto &v) {
        return static_cast<NodeId>(v.size()) == n;
    };
    if (!sized(angles) || !sized(flow) || !sized(wires)) {
        reader.fail("pattern per-node vectors disagree with the "
                    "graph's " +
                    std::to_string(n) + " nodes");
        return {};
    }
    if (static_cast<NodeId>(order.size() + outputs.size()) != n) {
        reader.fail("pattern corrupted: " +
                    std::to_string(order.size()) + " measured + " +
                    std::to_string(outputs.size()) +
                    " outputs != " + std::to_string(n) + " nodes");
        return {};
    }
    const int num_wires = static_cast<int>(outputs.size());
    std::vector<char> measured(n, 0);
    for (NodeId u : order) {
        if (u < 0 || u >= n || measured[u]) {
            reader.fail("pattern measurement order is not a set of "
                        "distinct node ids");
            return {};
        }
        measured[u] = 1;
        if (!std::isfinite(angles[u])) {
            reader.fail("node " + std::to_string(u) +
                        " measures at a non-finite angle");
            return {};
        }
        if (flow[u] < 0 || flow[u] >= n || !graph.hasEdge(u, flow[u])) {
            reader.fail("flow successor of node " + std::to_string(u) +
                        " is not a graph neighbor");
            return {};
        }
    }
    for (NodeId out : outputs) {
        if (out < 0 || out >= n || measured[out] ||
            flow[out] != invalidNode) {
            reader.fail("pattern output list is inconsistent with "
                        "flow");
            return {};
        }
    }
    for (NodeId u = 0; u < n; ++u) {
        if (!measured[u] && flow[u] != invalidNode) {
            reader.fail("unmeasured node " + std::to_string(u) +
                        " carries a flow successor");
            return {};
        }
        if (wires[u] < 0 || wires[u] >= num_wires) {
            reader.fail("wire of node " + std::to_string(u) +
                        " outside [0, " + std::to_string(num_wires) +
                        ")");
            return {};
        }
        // A pattern node weighs 1 and only a measurement sets its
        // angle, as the pattern builder makes it.
        graph.setNodeWeight(u, 1);
        if (!measured[u])
            angles[u] = 0.0;
    }

    Pattern pattern(std::move(graph), std::move(angles),
                    std::move(flow), std::move(wires), std::move(order),
                    std::move(outputs));

    // The embedded X/Z dependency sets must match the flow-derived
    // ones; a mismatch means payload corruption the envelope
    // checksum cannot attribute.
    if (!checkDependencySet(reader, pattern, /*z_set=*/false) ||
        !checkDependencySet(reader, pattern, /*z_set=*/true))
        return {};
    if (!xDependenciesAcyclic(pattern)) {
        reader.fail("pattern X-dependency graph is cyclic");
        return {};
    }
    return pattern;
}

// --- Config ----------------------------------------------------------------

void
encodeConfig(BinaryWriter &writer, const DcMbqcConfig &config)
{
    writer.writeI32(config.numQpus);
    encodeGridSpec(writer, config.grid);
    writer.writeI32(config.kmax);
    writer.writeI32(config.partition.k);
    writer.writeF64(config.partition.epsilonQ);
    writer.writeF64(config.partition.alphaMax);
    writer.writeF64(config.partition.gamma);
    writer.writeI32(config.partition.maxIterations);
    writer.writeU64(config.partition.seed);
    writer.writeU8(config.useBdir ? 1 : 0);
    writer.writeF64(config.bdir.initialTemperature);
    writer.writeF64(config.bdir.coolingRate);
    writer.writeI32(config.bdir.maxIterations);
    writer.writeU64(config.bdir.seed);
    writer.writeU8(static_cast<std::uint8_t>(config.order));
}

DcMbqcConfig
decodeConfig(BinaryReader &reader)
{
    DcMbqcConfig config;
    config.numQpus = reader.readI32();
    config.grid = decodeGridSpec(reader);
    config.kmax = reader.readI32();
    config.partition.k = reader.readI32();
    config.partition.epsilonQ = reader.readF64();
    config.partition.alphaMax = reader.readF64();
    config.partition.gamma = reader.readF64();
    config.partition.maxIterations = reader.readI32();
    config.partition.seed = reader.readU64();
    config.useBdir = reader.readU8() != 0;
    config.bdir.initialTemperature = reader.readF64();
    config.bdir.coolingRate = reader.readF64();
    config.bdir.maxIterations = reader.readI32();
    config.bdir.seed = reader.readU64();
    const std::uint8_t order = reader.readU8();
    if (order >
        static_cast<std::uint8_t>(PlacementOrder::DependencyAwareRcm))
        reader.fail("invalid placement-order tag " +
                    std::to_string(order));
    else
        config.order = static_cast<PlacementOrder>(order);
    return config;
}

// --- Schedules -------------------------------------------------------------

void
encodeLocalSchedule(BinaryWriter &writer, const LocalSchedule &schedule)
{
    encodeGridSpec(writer, schedule.grid);
    writer.writeU32(static_cast<std::uint32_t>(schedule.layers.size()));
    for (const ExecutionLayer &layer : schedule.layers) {
        writer.writeI32Vector(layer.nodes);
        writer.writeI32(layer.computeCells);
        writer.writeI32(layer.routingCells);
    }
    writer.writeI32Vector(schedule.nodeLayer);
    writer.writeI64(schedule.routingFusions);
    writer.writeI64(schedule.edgeFusions);
}

LocalSchedule
decodeLocalSchedule(BinaryReader &reader)
{
    LocalSchedule schedule;
    schedule.grid = decodeGridSpec(reader);
    const std::uint32_t layers = reader.readCount(12);
    for (std::uint32_t i = 0; i < layers && reader.ok(); ++i) {
        ExecutionLayer layer;
        layer.nodes = reader.readI32Vector();
        layer.computeCells = reader.readI32();
        layer.routingCells = reader.readI32();
        schedule.layers.push_back(std::move(layer));
    }
    schedule.nodeLayer = reader.readI32Vector();
    schedule.routingFusions = reader.readI64();
    schedule.edgeFusions = reader.readI64();
    for (LayerId layer : schedule.nodeLayer) {
        if (layer != invalidLayer &&
            (layer < 0 ||
             layer >= static_cast<LayerId>(schedule.layers.size()))) {
            reader.fail("nodeLayer entry " + std::to_string(layer) +
                        " outside the " +
                        std::to_string(schedule.layers.size()) +
                        " layers");
            break;
        }
    }
    return schedule;
}

void
encodeSchedule(BinaryWriter &writer, const Schedule &schedule)
{
    writer.writeI32Vector(schedule.mainStart);
    writer.writeI32Vector(schedule.syncStart);
    writer.writeI32(schedule.makespan);
}

Schedule
decodeSchedule(BinaryReader &reader)
{
    Schedule schedule;
    schedule.mainStart = reader.readI32Vector();
    schedule.syncStart = reader.readI32Vector();
    schedule.makespan = reader.readI32();
    return schedule;
}

// --- CompileReport ---------------------------------------------------------

namespace
{

void
encodePortfolioReport(BinaryWriter &writer,
                      const PortfolioReport &race)
{
    writer.writeU32(static_cast<std::uint32_t>(race.requested));
    writer.writeI32(race.winnerIndex);
    writer.writeF64(race.raceMillis);
    writer.writeU32(
        static_cast<std::uint32_t>(race.cancelledEarly));
    writer.writeU8(race.validated ? 1 : 0);
    writer.writeString(race.validationNote);
    writer.writeU32(
        static_cast<std::uint32_t>(race.candidates.size()));
    for (const PortfolioCandidate &entry : race.candidates) {
        writer.writeString(entry.strategy);
        writer.writeU64(entry.seed);
        std::uint8_t flags = 0;
        if (entry.cacheHit)
            flags |= 1;
        if (entry.cancelled)
            flags |= 2;
        if (entry.winner)
            flags |= 4;
        writer.writeU8(flags);
        encodeStatus(writer, entry.status);
        writer.writeF64(entry.logSurvival);
        writer.writeF64(entry.successProbability);
        writer.writeI32(entry.makespan);
        writer.writeI32(entry.connectors);
        writer.writeF64(entry.wallMillis);
    }
}

PortfolioReport
decodePortfolioReport(BinaryReader &reader)
{
    PortfolioReport race;
    race.requested = static_cast<int>(reader.readU32());
    race.winnerIndex = reader.readI32();
    race.raceMillis = reader.readF64();
    race.cancelledEarly = static_cast<int>(reader.readU32());
    race.validated = reader.readU8() != 0;
    race.validationNote = reader.readString();
    const std::uint32_t candidates = reader.readCount(10);
    for (std::uint32_t i = 0; i < candidates && reader.ok(); ++i) {
        PortfolioCandidate entry;
        entry.strategy = reader.readString();
        entry.seed = reader.readU64();
        const std::uint8_t flags = reader.readU8();
        if ((flags & ~0x7) != 0) {
            reader.fail("portfolio-candidate flags byte " +
                        std::to_string(flags) + " is invalid");
            break;
        }
        entry.cacheHit = (flags & 1) != 0;
        entry.cancelled = (flags & 2) != 0;
        entry.winner = (flags & 4) != 0;
        entry.status = decodeStatus(reader);
        entry.logSurvival = reader.readF64();
        entry.successProbability = reader.readF64();
        entry.makespan = reader.readI32();
        entry.connectors = reader.readI32();
        entry.wallMillis = reader.readF64();
        race.candidates.push_back(std::move(entry));
    }
    if (reader.ok() &&
        (race.winnerIndex < -1 ||
         race.winnerIndex >=
             static_cast<int>(race.candidates.size())))
        reader.fail("portfolio winner index " +
                    std::to_string(race.winnerIndex) +
                    " outside the candidate table");
    return race;
}

} // namespace

void
encodeCompileReport(BinaryWriter &writer, const CompileReport &report)
{
    writer.writeString(report.label);
    std::uint8_t flags = 0;
    if (report.distributed)
        flags |= 1;
    if (report.baseline)
        flags |= 2;
    if (report.cacheHit)
        flags |= 4;
    if (report.cacheStats)
        flags |= 8;
    if (!report.executions.empty())
        flags |= 16;
    if (report.pattern)
        flags |= 32;
    if (report.portfolio)
        flags |= 64;
    writer.writeU8(flags);
    if (report.distributed)
        encodeDcResult(writer, *report.distributed);
    if (report.baseline)
        encodeBaselineResult(writer, *report.baseline);
    writer.writeU32(static_cast<std::uint32_t>(report.stages.size()));
    for (const StageReport &stage : report.stages) {
        writer.writeString(stage.pass);
        writer.writeF64(stage.millis);
        encodeStatus(writer, stage.status);
        writer.writeString(stage.note);
    }
    writer.writeU32(
        static_cast<std::uint32_t>(report.warnings.size()));
    for (const std::string &warning : report.warnings)
        writer.writeString(warning);
    writer.writeF64(report.totalMillis);
    writer.writeU64(report.cacheKey);
    writer.writeU64(report.cacheVerifier);
    if (report.cacheStats) {
        writer.writeU64(report.cacheStats->hits);
        writer.writeU64(report.cacheStats->misses);
        writer.writeU64(report.cacheStats->evictions);
        writer.writeU64(report.cacheStats->diskHits);
        writer.writeU64(report.cacheStats->diskWrites);
    }
    if (!report.executions.empty()) {
        writer.writeU32(
            static_cast<std::uint32_t>(report.executions.size()));
        for (const ExecResult &execution : report.executions)
            encodeExecResult(writer, execution);
    }
    if (report.pattern)
        encodePattern(writer, *report.pattern);
    if (report.portfolio)
        encodePortfolioReport(writer, *report.portfolio);
}

CompileReport
decodeCompileReport(BinaryReader &reader)
{
    CompileReport report;
    report.label = reader.readString();
    const std::uint8_t flags = reader.readU8();
    // Every legitimately encoded report carries exactly the flags
    // this version writes, and always one result payload; anything
    // else is a corrupted or handcrafted artifact. Bit 16
    // (executions) and bit 32 (retained pattern) are absent from
    // older artifacts, which keeps them decodable byte for byte —
    // as is bit 64 (portfolio race table).
    if ((flags & ~0x7f) != 0 || (flags & 3) == 0) {
        reader.fail("compile-report flags byte " +
                    std::to_string(flags) +
                    " is invalid (no result payload)");
        return report;
    }
    if (flags & 1)
        report.distributed = decodeDcResult(reader);
    if (flags & 2)
        report.baseline = decodeBaselineResult(reader);
    report.cacheHit = (flags & 4) != 0;
    const std::uint32_t stages = reader.readCount(1);
    for (std::uint32_t i = 0; i < stages && reader.ok(); ++i) {
        StageReport stage;
        stage.pass = reader.readString();
        stage.millis = reader.readF64();
        stage.status = decodeStatus(reader);
        stage.note = reader.readString();
        report.stages.push_back(std::move(stage));
    }
    const std::uint32_t warnings = reader.readCount(1);
    for (std::uint32_t i = 0; i < warnings && reader.ok(); ++i)
        report.warnings.push_back(reader.readString());
    report.totalMillis = reader.readF64();
    report.cacheKey = reader.readU64();
    report.cacheVerifier = reader.readU64();
    if (flags & 8) {
        CacheStats stats;
        stats.hits = reader.readU64();
        stats.misses = reader.readU64();
        stats.evictions = reader.readU64();
        stats.diskHits = reader.readU64();
        stats.diskWrites = reader.readU64();
        report.cacheStats = stats;
    }
    if (flags & 16) {
        const std::uint32_t executions = reader.readCount(1);
        if (executions == 0 && reader.ok())
            reader.fail("executions flag set on an empty list");
        for (std::uint32_t i = 0; i < executions && reader.ok(); ++i)
            report.executions.push_back(decodeExecResult(reader));
    }
    if (flags & 32)
        report.pattern = decodePattern(reader);
    if (flags & 64)
        report.portfolio = decodePortfolioReport(reader);
    return report;
}

// --- ExecResult ------------------------------------------------------------

namespace
{

void
encodeCountMap(BinaryWriter &writer,
               const std::map<std::string, std::int64_t> &counts)
{
    writer.writeU32(static_cast<std::uint32_t>(counts.size()));
    for (const auto &[key, count] : counts) {
        writer.writeString(key);
        writer.writeI64(count);
    }
}

std::map<std::string, std::int64_t>
decodeCountMap(BinaryReader &reader)
{
    std::map<std::string, std::int64_t> counts;
    const std::uint32_t entries = reader.readCount(5);
    for (std::uint32_t i = 0; i < entries && reader.ok(); ++i) {
        std::string key = reader.readString();
        const std::int64_t count = reader.readI64();
        if (count < 0) {
            reader.fail("negative outcome count " +
                        std::to_string(count) + " for '" + key + "'");
            break;
        }
        if (!counts.emplace(std::move(key), count).second) {
            reader.fail("duplicate outcome key in histogram");
            break;
        }
    }
    return counts;
}

void
encodeProbMap(BinaryWriter &writer,
              const std::map<std::string, double> &probabilities)
{
    writer.writeU32(
        static_cast<std::uint32_t>(probabilities.size()));
    for (const auto &[key, probability] : probabilities) {
        writer.writeString(key);
        writer.writeF64(probability);
    }
}

std::map<std::string, double>
decodeProbMap(BinaryReader &reader)
{
    std::map<std::string, double> probabilities;
    const std::uint32_t entries = reader.readCount(5);
    for (std::uint32_t i = 0; i < entries && reader.ok(); ++i) {
        std::string key = reader.readString();
        const double probability = reader.readF64();
        if (!(probability >= 0.0 && probability <= 1.0 + 1e-9)) {
            reader.fail("probability of '" + key +
                        "' outside [0, 1]");
            break;
        }
        if (!probabilities.emplace(std::move(key), probability)
                 .second) {
            reader.fail("duplicate outcome key in probabilities");
            break;
        }
    }
    return probabilities;
}

} // namespace

void
encodeExecResult(BinaryWriter &writer, const ExecResult &result)
{
    writer.writeString(result.backend);
    writer.writeString(result.label);
    writer.writeI32(result.shots);
    writer.writeI32(result.completedShots);
    writer.writeI32(result.numWires);
    writer.writeI64(result.seed);
    writer.writeI32(result.threads);
    writer.writeF64(result.wallMillis);
    encodeCountMap(writer, result.counts);
    encodeProbMap(writer, result.probabilities);
    writer.writeI32(result.lostShots);
    writer.writeI64(result.lostPhotons);
    writer.writeF64(result.analyticSuccessProbability);
    writer.writeI32(result.maxStorageCycles);
    writer.writeF64(result.meanStorageCycles);
    writer.writeU32(static_cast<std::uint32_t>(result.notes.size()));
    for (const std::string &note : result.notes)
        writer.writeString(note);
}

ExecResult
decodeExecResult(BinaryReader &reader)
{
    ExecResult result;
    result.backend = reader.readString();
    result.label = reader.readString();
    result.shots = reader.readI32();
    result.completedShots = reader.readI32();
    result.numWires = reader.readI32();
    result.seed = reader.readI64();
    result.threads = reader.readI32();
    result.wallMillis = reader.readF64();
    result.counts = decodeCountMap(reader);
    result.probabilities = decodeProbMap(reader);
    result.lostShots = reader.readI32();
    result.lostPhotons = reader.readI64();
    result.analyticSuccessProbability = reader.readF64();
    result.maxStorageCycles = reader.readI32();
    result.meanStorageCycles = reader.readF64();
    const std::uint32_t notes = reader.readCount(4);
    for (std::uint32_t i = 0; i < notes && reader.ok(); ++i)
        result.notes.push_back(reader.readString());
    if (!reader.ok())
        return result;
    if (result.shots < 0 || result.completedShots < 0 ||
        result.completedShots > result.shots) {
        reader.fail("shot counts inconsistent: " +
                    std::to_string(result.completedShots) + " of " +
                    std::to_string(result.shots) + " completed");
        return result;
    }
    std::int64_t counted = 0;
    for (const auto &[key, count] : result.counts)
        counted += count;
    if (counted > result.shots)
        reader.fail("histogram holds " + std::to_string(counted) +
                    " outcomes for " + std::to_string(result.shots) +
                    " shots");
    return result;
}

// --- NoiseConfig -----------------------------------------------------------

void
encodeNoiseConfig(BinaryWriter &writer, const NoiseConfig &config)
{
    writer.writeU32(
        static_cast<std::uint32_t>(config.mechanisms.size()));
    for (const MechanismSpec &spec : config.mechanisms) {
        writer.writeString(spec.mechanism);
        writer.writeU32(static_cast<std::uint32_t>(spec.params.size()));
        for (const NoiseParam &param : spec.params) {
            writer.writeString(param.name);
            writer.writeF64(param.value);
        }
    }
}

NoiseConfig
decodeNoiseConfig(BinaryReader &reader)
{
    NoiseConfig config;
    const std::uint32_t mechanisms = reader.readCount(8);
    for (std::uint32_t i = 0; i < mechanisms && reader.ok(); ++i) {
        MechanismSpec spec;
        spec.mechanism = reader.readString();
        if (reader.ok() && !isKnownNoiseMechanism(spec.mechanism)) {
            reader.fail("unknown noise mechanism '" + spec.mechanism +
                        "' in noise-config artifact");
            break;
        }
        const std::uint32_t params = reader.readCount(12);
        for (std::uint32_t j = 0; j < params && reader.ok(); ++j) {
            NoiseParam param;
            param.name = reader.readString();
            param.value = reader.readF64();
            spec.params.push_back(std::move(param));
        }
        config.mechanisms.push_back(std::move(spec));
    }
    return config;
}

// --- Artifact wrappers -----------------------------------------------------

std::vector<std::uint8_t>
encodeCircuitArtifact(const Circuit &circuit)
{
    return sealPayload(ArtifactKind::Circuit, [&](BinaryWriter &w) {
        encodeCircuit(w, circuit);
    });
}

Expected<Circuit>
decodeCircuitArtifact(const std::vector<std::uint8_t> &bytes)
{
    return decodeArtifactAs<Circuit>(ArtifactKind::Circuit, bytes,
                                     decodeCircuit);
}

std::vector<std::uint8_t>
encodeGraphArtifact(const Graph &graph)
{
    return sealPayload(ArtifactKind::Graph, [&](BinaryWriter &w) {
        encodeGraph(w, graph);
    });
}

Expected<Graph>
decodeGraphArtifact(const std::vector<std::uint8_t> &bytes)
{
    return decodeArtifactAs<Graph>(ArtifactKind::Graph, bytes,
                                   decodeGraph);
}

std::vector<std::uint8_t>
encodeDigraphArtifact(const Digraph &digraph)
{
    return sealPayload(ArtifactKind::Digraph, [&](BinaryWriter &w) {
        encodeDigraph(w, digraph);
    });
}

Expected<Digraph>
decodeDigraphArtifact(const std::vector<std::uint8_t> &bytes)
{
    return decodeArtifactAs<Digraph>(ArtifactKind::Digraph, bytes,
                                     decodeDigraph);
}

std::vector<std::uint8_t>
encodePatternArtifact(const Pattern &pattern)
{
    return sealPayload(ArtifactKind::Pattern, [&](BinaryWriter &w) {
        encodePattern(w, pattern);
    });
}

Expected<Pattern>
decodePatternArtifact(const std::vector<std::uint8_t> &bytes)
{
    return decodeArtifactAs<Pattern>(ArtifactKind::Pattern, bytes,
                                     decodePattern);
}

std::vector<std::uint8_t>
encodeConfigArtifact(const DcMbqcConfig &config)
{
    return sealPayload(ArtifactKind::Config, [&](BinaryWriter &w) {
        encodeConfig(w, config);
    });
}

Expected<DcMbqcConfig>
decodeConfigArtifact(const std::vector<std::uint8_t> &bytes)
{
    return decodeArtifactAs<DcMbqcConfig>(ArtifactKind::Config, bytes,
                                          decodeConfig);
}

std::vector<std::uint8_t>
encodeLocalScheduleArtifact(const LocalSchedule &schedule)
{
    return sealPayload(ArtifactKind::LocalSchedule,
                       [&](BinaryWriter &w) {
                           encodeLocalSchedule(w, schedule);
                       });
}

Expected<LocalSchedule>
decodeLocalScheduleArtifact(const std::vector<std::uint8_t> &bytes)
{
    return decodeArtifactAs<LocalSchedule>(ArtifactKind::LocalSchedule,
                                           bytes, decodeLocalSchedule);
}

std::vector<std::uint8_t>
encodeScheduleArtifact(const Schedule &schedule)
{
    return sealPayload(ArtifactKind::Schedule, [&](BinaryWriter &w) {
        encodeSchedule(w, schedule);
    });
}

Expected<Schedule>
decodeScheduleArtifact(const std::vector<std::uint8_t> &bytes)
{
    return decodeArtifactAs<Schedule>(ArtifactKind::Schedule, bytes,
                                      decodeSchedule);
}

std::vector<std::uint8_t>
encodeCompileReportArtifact(const CompileReport &report)
{
    return sealPayload(ArtifactKind::CompileReport,
                       [&](BinaryWriter &w) {
                           encodeCompileReport(w, report);
                       });
}

Expected<CompileReport>
decodeCompileReportArtifact(const std::vector<std::uint8_t> &bytes)
{
    return decodeArtifactAs<CompileReport>(ArtifactKind::CompileReport,
                                           bytes, decodeCompileReport);
}

Expected<CompileReport>
decodeCompileReportArtifact(const ArtifactView &opened)
{
    return decodeViewAs<CompileReport>(ArtifactKind::CompileReport,
                                       opened, decodeCompileReport);
}

std::vector<std::uint8_t>
encodeExecResultArtifact(const ExecResult &result)
{
    return sealPayload(ArtifactKind::ExecResult, [&](BinaryWriter &w) {
        encodeExecResult(w, result);
    });
}

Expected<ExecResult>
decodeExecResultArtifact(const std::vector<std::uint8_t> &bytes)
{
    return decodeArtifactAs<ExecResult>(ArtifactKind::ExecResult,
                                        bytes, decodeExecResult);
}

std::vector<std::uint8_t>
encodeNoiseConfigArtifact(const NoiseConfig &config)
{
    return sealPayload(ArtifactKind::NoiseConfig,
                       [&](BinaryWriter &w) {
                           encodeNoiseConfig(w, config);
                       });
}

Expected<NoiseConfig>
decodeNoiseConfigArtifact(const std::vector<std::uint8_t> &bytes)
{
    return decodeArtifactAs<NoiseConfig>(ArtifactKind::NoiseConfig,
                                         bytes, decodeNoiseConfig);
}

} // namespace dcmbqc

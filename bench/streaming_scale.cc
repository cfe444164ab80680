/**
 * @file
 * Streaming-compilation scale harness: compiles the huge-circuit
 * generator families through the windowed front end and reports
 * throughput (gates/s), wall-clock, process peak RSS, and the
 * streaming high-water marks (frontier nodes, pending edges, live
 * builder bytes, resident sync slots). The final stage compiles a
 * single graph-state instance whose size is taken from argv
 * (default 500x500; CI passes 1000x1000 for the million-qubit run
 * under an address-space ulimit). The harness exits nonzero if the
 * pattern builder's live state grows with circuit length (deep QAOA
 * at 24 vs 48 layers) — the width-not-length property that makes
 * million-qubit inputs compile in bounded memory at all. Results
 * are mirrored to BENCH_streaming.json.
 */

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <memory>
#include <string>
#include <vector>

#include "api/api.hh"
#include "bench/bench_json.hh"
#include "circuit/circuit_stream.hh"
#include "circuit/huge_generators.hh"
#include "common/resource.hh"
#include "common/table.hh"
#include "serialize/json.hh"

using namespace dcmbqc;
using namespace dcmbqc::bench;

namespace
{

constexpr int kWindow = 4096;

struct Measurement
{
    std::string name;
    unsigned long long qubits = 0;
    unsigned long long gates = 0;
    double wallMs = 0.0;
    double gatesPerSecond = 0.0;
    StreamStats streaming;
    unsigned long long peakRssBytes = 0;
};

[[noreturn]] void
fail(const std::string &message)
{
    std::fprintf(stderr, "streaming_scale: %s\n", message.c_str());
    std::exit(1);
}

/** One streamed compile of `stream`, bdir off so scale dominates. */
Measurement
measure(const std::shared_ptr<CircuitStream> &stream, int num_qpus,
        int grid_size)
{
    Measurement m;
    m.name = stream->name();
    m.qubits = static_cast<unsigned long long>(stream->numQubits());
    m.gates = stream->totalGates();

    CompileOptions options;
    options.numQpus(num_qpus)
        .gridSize(grid_size)
        .seed(1)
        .useBdir(false)
        .window(kWindow);
    const auto start = std::chrono::steady_clock::now();
    auto report = CompilerDriver(options).compile(
        CompileRequest::fromCircuitStream(stream));
    m.wallMs = std::chrono::duration<double, std::milli>(
                   std::chrono::steady_clock::now() - start)
                   .count();
    if (!report.ok())
        fail(m.name + ": " + report.status().toString());
    m.gatesPerSecond =
        m.wallMs > 0.0 ? 1e3 * (double)m.gates / m.wallMs : 0.0;
    m.streaming = report->streaming;
    m.peakRssBytes = report->peakRssBytes;
    return m;
}

void
appendJson(JsonWriter &json, const Measurement &m)
{
    json.beginObject();
    json.key("name").value(m.name);
    json.key("qubits").value(m.qubits);
    json.key("gates").value(m.gates);
    json.key("window").value(kWindow);
    json.key("wallMs").value(m.wallMs);
    json.key("gatesPerSecond").value(m.gatesPerSecond);
    json.key("windows").value(
        (unsigned long long)m.streaming.windows);
    json.key("frontierNodePeak")
        .value((unsigned long long)m.streaming.frontierNodePeak);
    json.key("pendingEdgePeak")
        .value((unsigned long long)m.streaming.pendingEdgePeak);
    json.key("liveBytesPeak")
        .value((unsigned long long)m.streaming.liveBytesPeak);
    json.key("schedulerLivePeak")
        .value((unsigned long long)m.streaming.schedulerLivePeak);
    json.key("peakRssBytes").value(m.peakRssBytes);
    json.endObject();
}

} // namespace

int
main(int argc, char **argv)
{
    int rows = 500;
    int cols = 500;
    if (argc == 3) {
        rows = std::atoi(argv[1]);
        cols = std::atoi(argv[2]);
        if (rows < 2 || cols < 2)
            fail("usage: streaming_scale [rows cols]");
    } else if (argc != 1) {
        fail("usage: streaming_scale [rows cols]");
    }

    // Family sweep at a fixed moderate size: the per-family
    // throughput and high-water marks CI diffs across commits.
    std::vector<Measurement> families;
    families.push_back(
        measure(makeGraphStateStream(100, 100), 4, 7));
    families.push_back(measure(makeDeepQaoaStream(512, 24), 4, 7));
    families.push_back(measure(makeDeepQaoaStream(512, 48), 4, 7));
    families.push_back(
        measure(makeRandomCliffordTStream(512, 100000), 4, 7));

    TextTable table({"program", "qubits", "gates", "wall ms",
                     "gates/s", "windows", "frontier", "pending",
                     "live bytes", "sched live", "peak RSS MiB"});
    for (const Measurement &m : families)
        table.row()
            .cell(m.name)
            .cell((long long)m.qubits)
            .cell((long long)m.gates)
            .cell(m.wallMs, 0)
            .cell(m.gatesPerSecond, 0)
            .cell((long long)m.streaming.windows)
            .cell((long long)m.streaming.frontierNodePeak)
            .cell((long long)m.streaming.pendingEdgePeak)
            .cell((long long)m.streaming.liveBytesPeak)
            .cell((long long)m.streaming.schedulerLivePeak)
            .cell((long long)(m.peakRssBytes >> 20));
    std::printf("%s",
                table.render("streaming compile, window 4096")
                    .c_str());

    // Deep QAOA is where streaming shines: length >> width. Doubling
    // the layer count must not grow the pattern builder's live state
    // -- growth means settled-prefix emission regressed into
    // buffering the program. (Pending edges read 0 at every window
    // boundary and the scheduler keeps every sync resident by
    // design, so neither is gated.)
    const Measurement &deep24 = families[1];
    const Measurement &deep48 = families[2];
    if (deep48.streaming.liveBytesPeak > deep24.streaming.liveBytesPeak)
        fail("deep-QAOA live builder state grows with circuit length: " +
             std::to_string(deep24.streaming.liveBytesPeak) +
             " B at 24 layers, " +
             std::to_string(deep48.streaming.liveBytesPeak) +
             " B at 48 layers");

    // Scale stage: one wide graph state (CI passes 1000 1000 for
    // the million-qubit run under an address-space ulimit).
    const Measurement scale =
        measure(makeGraphStateStream(rows, cols), 4, 7);
    std::printf("scale %s: %llu qubits, %llu gates, %.0f ms, "
                "%.0f gates/s, frontier peak %llu, peak RSS "
                "%llu MiB\n",
                scale.name.c_str(), scale.qubits, scale.gates,
                scale.wallMs, scale.gatesPerSecond,
                (unsigned long long)scale.streaming.frontierNodePeak,
                scale.peakRssBytes >> 20);
    if (scale.streaming.windows < 2)
        fail("scale run did not stream (fewer than 2 windows)");

    JsonWriter json;
    json.beginObject();
    json.key("bench").value("streaming_scale");
    json.key("families").beginArray();
    for (const Measurement &m : families)
        appendJson(json, m);
    json.endArray();
    json.key("scale");
    appendJson(json, scale);
    json.endObject();
    writeBenchJson("streaming", json.take());
    return 0;
}

/**
 * @file
 * Simulation-kernel acceptance bench gating the ROADMAP item 2
 * rewrite: (1) bit-packed tableau row operations vs the scalar
 * reference (gate: >= 5x), (2) AVX2 vs portable dense amplitude
 * throughput (gate: non-regression; the two are bit-identical, so
 * this is purely a speed check), (3) end-to-end shots/sec over a
 * 64-circuit random Clifford corpus, full optimized stack (one
 * symbolic replay per run on the packed tableau + live-photon window
 * + SIMD) vs full reference stack (scalar per-shot replay + full
 * graph state + portable) on the stabilizer backend
 * (gate: >= 3x). The window's isolated contribution vs the full
 * graph state is reported as its own row, ungated. Results are
 * mirrored to BENCH_sim_kernels.json.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <set>
#include <string>
#include <vector>

#include "api/api.hh"
#include "bench/bench_common.hh"
#include "bench/bench_json.hh"
#include "circuit/generators.hh"
#include "common/rng.hh"
#include "common/table.hh"
#include "serialize/json.hh"
#include "sim/kernel_config.hh"
#include "sim/stabilizer.hh"
#include "sim/stabilizer_reference.hh"
#include "sim/sv_kernels.hh"

using namespace dcmbqc;
using namespace dcmbqc::bench;

namespace
{

/** Calls per second of fn, run for at least `min_seconds`. */
template <class Fn>
double
rate(Fn &&fn, double min_seconds = 0.25)
{
    using clock = std::chrono::steady_clock;
    fn(); // warm-up (page in, populate caches)
    long reps = 0;
    const auto start = clock::now();
    double elapsed = 0.0;
    do {
        fn();
        ++reps;
        elapsed = std::chrono::duration<double>(clock::now() - start)
                      .count();
    } while (elapsed < min_seconds);
    return static_cast<double>(reps) / elapsed;
}

/** A 512-node graph with enough chords to keep rows dense. */
Graph
rowOpGraph()
{
    constexpr NodeId n = 512;
    std::vector<Edge> edges;
    std::set<std::pair<NodeId, NodeId>> seen;
    for (NodeId u = 0; u < n; ++u) {
        edges.push_back({u, (u + 1) % n});
        seen.insert(std::minmax(u, (u + 1) % n));
    }
    Rng chords(17);
    for (int extra = 0; extra < 2 * n; ++extra) {
        const NodeId u = static_cast<NodeId>(chords.uniformInt(n));
        const NodeId v = static_cast<NodeId>(chords.uniformInt(n));
        if (u != v && seen.insert(std::minmax(u, v)).second)
            edges.push_back({u, v});
    }
    return Graph(n, std::move(edges));
}

/**
 * Row-op workload on one tableau implementation: graph-state
 * membership tests (n rowsums against 2n+1-column rows per query)
 * over a fixed bag of stabilizers and near-stabilizers.
 */
template <class Sim>
double
rowOpRate(const Graph &g, const std::vector<PauliString> &queries)
{
    Sim sim(g.numNodes());
    sim.prepareGraphState(g);
    return rate([&] {
        int hits = 0;
        for (const PauliString &p : queries)
            hits += sim.isStabilizer(p) ? 1 : 0;
        // The graph stabilizers hit, their signed twins miss; a
        // wrong count means the bench measured a broken kernel.
        if (hits * 2 != static_cast<int>(queries.size()))
            fatal("sim_kernels: row-op workload verification failed");
    });
}

/**
 * A 64-circuit random Clifford corpus from the same generator
 * family tests/test_differential.cc pins, at 24-39 qubits and depth
 * 3n. Only 3.1% of a shot's measurements are deterministic (all of
 * them output measurements), and the live window averages 32
 * tableau qubits against 189 pattern nodes. The reference stack
 * replays every shot on the scalar tableau; the optimized one
 * replays each run once on the packed tableau and then samples a
 * shot by drawing its random outcomes and evaluating the output
 * forms, so per run it costs one tableau replay plus a few
 * microseconds a shot.
 */
std::vector<ExecProgram>
corpusPrograms()
{
    std::vector<ExecProgram> programs;
    programs.reserve(64);
    for (std::uint64_t seed = 0; seed < 64; ++seed) {
        const int qubits = 24 + static_cast<int>(seed % 16);
        const int gates = 3 * qubits + static_cast<int>(seed % 11);
        programs.push_back(ExecProgram::fromCircuit(
            makeRandomCliffordCircuit(qubits, gates, 4000 + seed),
            "corpus-" + std::to_string(seed)));
    }
    return programs;
}

/** Total shots/sec over the corpus under one kernel config. */
double
corpusShotsPerSec(const std::vector<ExecProgram> &programs,
                  const char *backend, int shots,
                  const SimKernelConfig &config)
{
    simKernelConfig() = config;
    const double runs_per_sec = rate([&] {
        for (const ExecProgram &program : programs) {
            ExecOptions options;
            options.backend = backend;
            options.shots = shots;
            options.seed = 7;
            options.numThreads = 2;
            auto result = executeProgram(program, options);
            if (!result.ok())
                fatal("sim_kernels corpus run: ",
                      result.status().toString());
        }
    }, 0.5);
    resetSimKernelConfig();
    return runs_per_sec * static_cast<double>(programs.size()) *
        static_cast<double>(shots);
}

} // namespace

int
main()
{
    TextTable table({"kernel", "reference", "optimized", "speedup"});
    JsonWriter json;
    json.beginObject();
    json.key("bench").value("sim_kernels");
    json.key("rows").beginArray();
    bool pass = true;

    // --- (1) Tableau row operations --------------------------------
    const Graph g = rowOpGraph();
    std::vector<PauliString> queries;
    for (NodeId i = 0; i < 16; ++i) {
        queries.push_back(
            StabilizerSim::graphStabilizer(g, i * 31 % g.numNodes()));
        queries.push_back(PauliString(queries.back()).withSign(true));
    }
    const double scalar_rowops =
        rowOpRate<ScalarStabilizerSim>(g, queries);
    const double packed_rowops = rowOpRate<StabilizerSim>(g, queries);
    const double tableau_speedup = packed_rowops / scalar_rowops;
    table.row()
        .cell("tableau row ops (512q, queries/s)")
        .cell(scalar_rowops * queries.size(), 1)
        .cell(packed_rowops * queries.size(), 1)
        .cell(tableau_speedup, 2);
    json.beginObject();
    json.key("kernel").value("tableau_rowops");
    json.key("referenceRate").value(scalar_rowops * queries.size());
    json.key("optimizedRate").value(packed_rowops * queries.size());
    json.key("speedup").value(tableau_speedup);
    json.key("gate").value(5.0);
    json.endObject();
    if (tableau_speedup < 5.0)
        pass = false;

    // --- (2) Dense amplitude kernels -------------------------------
    constexpr int kSvQubits = 20;
    const std::size_t size = std::size_t(1) << kSvQubits;
    std::vector<sv::Amp> amps(size);
    Rng arng(5);
    for (auto &a : amps)
        a = sv::Amp(arng.uniform() - 0.5, arng.uniform() - 0.5);
    const sv::Amp m[4] = {sv::Amp(0.8, 0.1), sv::Amp(0.1, -0.2),
                          sv::Amp(-0.1, 0.2), sv::Amp(0.8, -0.1)};
    const double portable_sweeps = rate([&] {
        for (int q = 0; q < kSvQubits; ++q)
            sv::apply1qPortable(amps.data(), size, q, m);
    });
    double simd_speedup = 1.0;
    double simd_sweeps = portable_sweeps;
#if defined(__x86_64__) || defined(_M_X64)
    if (sv::cpuHasAvx2()) {
        simd_sweeps = rate([&] {
            for (int q = 0; q < kSvQubits; ++q)
                sv::apply1qAvx2(amps.data(), size, q, m);
        });
        simd_speedup = simd_sweeps / portable_sweeps;
    }
#endif
    const double amps_per_sweep =
        static_cast<double>(size) * kSvQubits;
    table.row()
        .cell("amplitude kernel (20q, amps/s)")
        .cell(portable_sweeps * amps_per_sweep, 0)
        .cell(simd_sweeps * amps_per_sweep, 0)
        .cell(simd_speedup, 2);
    json.beginObject();
    json.key("kernel").value("sv_apply1q");
    json.key("avx2Available").value(sv::cpuHasAvx2());
    json.key("referenceRate").value(portable_sweeps * amps_per_sweep);
    json.key("optimizedRate").value(simd_sweeps * amps_per_sweep);
    json.key("speedup").value(simd_speedup);
    json.key("gate").value(0.9);
    json.endObject();
    // Bit-identical by contract, so the only acceptable cost is
    // none: regression beyond noise fails the bench.
    if (simd_speedup < 0.9)
        pass = false;

    // --- (3) End-to-end corpus throughput --------------------------
    // Gated: the full optimized stack against the full reference
    // stack (the pre-rewrite configuration) on the stabilizer
    // backend, shots/sec over the whole 64-circuit corpus. The
    // full-graph-state rate under otherwise-fast kernels is measured
    // once more so the window's own contribution is visible.
    const std::vector<ExecProgram> corpus = corpusPrograms();
    const SimKernelConfig reference{false, false, SvKernel::Portable};
    const SimKernelConfig full_graph{true, false, SvKernel::Auto};
    const SimKernelConfig fast{true, true, SvKernel::Auto};
    constexpr int kShots = 256;
    const double reference_rate =
        corpusShotsPerSec(corpus, "stabilizer", kShots, reference);
    const double full_graph_rate =
        corpusShotsPerSec(corpus, "stabilizer", kShots, full_graph);
    const double fast_rate =
        corpusShotsPerSec(corpus, "stabilizer", kShots, fast);
    const double corpus_speedup = fast_rate / reference_rate;
    table.row()
        .cell("corpus, stabilizer (shots/s)")
        .cell(reference_rate, 0)
        .cell(fast_rate, 0)
        .cell(corpus_speedup, 2);
    json.beginObject();
    json.key("kernel").value("corpus_stabilizer");
    json.key("corpusCircuits").value(static_cast<int>(corpus.size()));
    json.key("shotsPerCircuit").value(kShots);
    json.key("referenceRate").value(reference_rate);
    json.key("optimizedRate").value(fast_rate);
    json.key("speedup").value(corpus_speedup);
    json.key("gate").value(3.0);
    json.endObject();
    if (corpus_speedup < 3.0)
        pass = false;

    // Ungated: the window in isolation (packed + SIMD held fixed,
    // window vs full graph state).
    table.row()
        .cell("live window, stabilizer (shots/s)")
        .cell(full_graph_rate, 0)
        .cell(fast_rate, 0)
        .cell(fast_rate / full_graph_rate, 2);
    json.beginObject();
    json.key("kernel").value("live_window_stabilizer");
    json.key("corpusCircuits").value(static_cast<int>(corpus.size()));
    json.key("shotsPerCircuit").value(kShots);
    json.key("referenceRate").value(full_graph_rate);
    json.key("optimizedRate").value(fast_rate);
    json.key("speedup").value(fast_rate / full_graph_rate);
    json.key("gated").value(false);
    json.endObject();

    json.endArray();
    json.key("pass").value(pass);
    json.endObject();

    std::printf("%s",
                table
                    .render("Simulation kernels: optimized vs "
                            "reference (gates: tableau >= 5x, "
                            "corpus >= 3x, SIMD >= 0.9x)")
                    .c_str());
    writeBenchJson("sim_kernels", json.take());
    if (!pass)
        std::printf("\nsim_kernels: speedup gate FAILED\n");
    return pass ? 0 : 1;
}

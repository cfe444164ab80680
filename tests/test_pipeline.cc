/**
 * @file
 * End-to-end tests of the DC-MBQC pipeline (Figure 2) through the
 * pass-based `CompilerDriver`: structural invariants of the
 * distributed schedule, the headline property that distribution
 * reduces execution time and required lifetime on mid-size
 * programs, and baseline consistency. The pins at the end fix the
 * exact output of two Table II compiles large enough to route,
 * defer fusions and run BDIR on a real grid, so a rewrite of any
 * pass that reads graph adjacency cannot move artifact bytes
 * unnoticed.
 */

#include <gtest/gtest.h>

#include "api/api.hh"
#include "driver_helpers.hh"
#include "circuit/generators.hh"
#include "core/lsp_builder.hh"
#include "mbqc/dependency.hh"
#include "mbqc/pattern_builder.hh"
#include "photonic/grid.hh"
#include "serialize/binary.hh"
#include "serialize/codecs.hh"

namespace dcmbqc
{
namespace
{

CompileOptions
makeOptions(int qpus, int grid_size,
            ResourceStateType type = ResourceStateType::Star5)
{
    return CompileOptions()
        .numQpus(qpus)
        .gridSize(grid_size)
        .resourceState(type)
        .kmax(4)
        .alphaMax(1.5);
}

using test::compileDc;

DcMbqcResult
compileDc(const CompileOptions &options, const Pattern &pattern)
{
    auto report = CompilerDriver(options).compile(
        CompileRequest::fromPattern(pattern));
    EXPECT_TRUE(report.ok()) << report.status().toString();
    return report->result();
}

using test::rebuildLsp;

BaselineResult
compileBase(const CompileOptions &options, const Graph &g,
            const Digraph &deps)
{
    return test::compileBase(g, deps, options.baselineConfig());
}

TEST(Pipeline, BaselineCompilesQft)
{
    const auto pattern = buildPattern(makeQft(6));
    auto report =
        CompilerDriver(CompileOptions().numQpus(1).gridSize(
                           gridSizeForQubits(6)))
            .compileBaseline(CompileRequest::fromPattern(pattern));
    ASSERT_TRUE(report.ok()) << report.status().toString();
    const auto &r = report->baselineResult();
    EXPECT_GT(r.executionTime(), 0);
    EXPECT_GT(r.requiredLifetime(), 0);
    EXPECT_EQ(r.schedule.nodeLayer.size(),
              static_cast<std::size_t>(pattern.numNodes()));
}

TEST(Pipeline, DistributedScheduleIsFeasible)
{
    const auto pattern = buildPattern(makeQft(8));
    const auto deps = realTimeDependencyGraph(pattern);
    const auto options = makeOptions(4, gridSizeForQubits(8));
    const auto result = compileDc(options, pattern.graph(), deps);

    // Rebuild the LSP from the result's partition and validate.
    const auto lsp =
        rebuildLsp(options, pattern.graph(), deps, result.partition);
    std::string why;
    EXPECT_TRUE(validateSchedule(lsp, result.schedule, &why)) << why;
}

TEST(Pipeline, PartitionCoversAllNodes)
{
    const auto pattern = buildPattern(makeVqe(6));
    const auto result = compileDc(makeOptions(4, 7), pattern);
    EXPECT_EQ(result.partition.numNodes(), pattern.numNodes());
    for (NodeId u = 0; u < pattern.numNodes(); ++u) {
        EXPECT_GE(result.partition.part(u), 0);
        EXPECT_LT(result.partition.part(u), 4);
    }
}

TEST(Pipeline, EveryNodeInExactlyOneLocalSchedule)
{
    const auto pattern = buildPattern(makeQaoaMaxcut(8, 3));
    const auto result = compileDc(makeOptions(4, 7), pattern);
    std::size_t total = 0;
    for (const auto &local : result.localSchedules)
        total += local.nodeLayer.size();
    EXPECT_EQ(total, static_cast<std::size_t>(pattern.numNodes()));
}

TEST(Pipeline, ConnectorCountMatchesPartitionCut)
{
    const auto pattern = buildPattern(makeQft(7));
    const auto result = compileDc(makeOptions(4, 7), pattern);
    EXPECT_EQ(result.numConnectors,
              result.partition.numCutEdges(pattern.graph()));
}

TEST(Pipeline, DistributionBeatsBaselineOnExecTime)
{
    // Mid-size programs: 8 QPUs must be faster; for RCA (the
    // fusee-storage-dominated family) the required lifetime must
    // also drop. QFT's lifetime is measurement-latency-bound in our
    // model, so only its execution time is asserted (see
    // EXPERIMENTS.md).
    const int grid_qft = gridSizeForQubits(12);
    const auto qft = buildPattern(makeQft(12));
    const auto qft_deps = realTimeDependencyGraph(qft);
    const auto qft_base = compileBase(
        CompileOptions().gridSize(grid_qft), qft.graph(), qft_deps);
    const auto qft_dc =
        compileDc(makeOptions(8, grid_qft), qft.graph(), qft_deps);
    EXPECT_LT(qft_dc.executionTime(), qft_base.executionTime());

    const int grid_rca = gridSizeForQubits(24);
    const auto rca = buildPattern(makeRippleCarryAdder(24));
    const auto rca_deps = realTimeDependencyGraph(rca);
    const auto rca_base = compileBase(
        CompileOptions().gridSize(grid_rca), rca.graph(), rca_deps);
    const auto rca_dc =
        compileDc(makeOptions(8, grid_rca), rca.graph(), rca_deps);
    EXPECT_LT(rca_dc.executionTime(), rca_base.executionTime());
    EXPECT_LT(rca_dc.requiredLifetime(), rca_base.requiredLifetime());
}

TEST(Pipeline, MoreQpusNotSlower)
{
    const auto pattern = buildPattern(makeVqe(8));
    const auto deps = realTimeDependencyGraph(pattern);
    const auto two = compileDc(makeOptions(2, 7), pattern.graph(), deps);
    const auto eight =
        compileDc(makeOptions(8, 7), pattern.graph(), deps);
    EXPECT_LE(eight.executionTime(), two.executionTime());
}

TEST(Pipeline, SingleQpuDegeneratesToBaselineShape)
{
    // With k=1 there are no connectors and tau_remote is 0.
    const auto pattern = buildPattern(makeQft(5));
    const auto result = compileDc(makeOptions(1, 7), pattern);
    EXPECT_EQ(result.numConnectors, 0);
    EXPECT_EQ(result.metrics.tauRemote, 0);
}

TEST(Pipeline, MetricsAreCoherent)
{
    const auto pattern = buildPattern(makeQaoaMaxcut(9, 5));
    const auto result = compileDc(makeOptions(4, 7), pattern);
    EXPECT_EQ(result.requiredLifetime(),
              std::max(result.metrics.tauLocal,
                       result.metrics.tauRemote));
    EXPECT_GE(result.executionTime(), 1);
    EXPECT_GE(result.partitionModularity, -0.5);
    EXPECT_LE(result.partitionModularity, 1.0);
}

TEST(Pipeline, BdirNotWorseThanListOnly)
{
    const auto pattern = buildPattern(makeQft(9));
    const auto deps = realTimeDependencyGraph(pattern);

    const auto with = makeOptions(4, 7);
    auto without = makeOptions(4, 7);
    without.useBdir(false);

    const auto a = compileDc(with, pattern.graph(), deps);
    const auto b = compileDc(without, pattern.graph(), deps);
    EXPECT_LE(a.requiredLifetime(), b.requiredLifetime());
}

TEST(Pipeline, WorksWithEveryResourceState)
{
    const auto pattern = buildPattern(makeQaoaMaxcut(6, 9));
    for (auto type : allResourceStateTypes) {
        const auto result = compileDc(makeOptions(4, 7, type), pattern);
        EXPECT_GT(result.executionTime(), 0)
            << resourceStateInfo(type).name();
    }
}

TEST(Pipeline, DeterministicEndToEnd)
{
    const auto pattern = buildPattern(makeQft(7));
    const auto options = makeOptions(4, 7);
    const auto a = compileDc(options, pattern);
    const auto b = compileDc(options, pattern);
    EXPECT_EQ(a.executionTime(), b.executionTime());
    EXPECT_EQ(a.requiredLifetime(), b.requiredLifetime());
    EXPECT_EQ(a.partition.assignment(), b.partition.assignment());
}

TEST(Pipeline, StageReportCoversAllPasses)
{
    const auto pattern = buildPattern(makeQft(6));
    auto report = CompilerDriver(makeOptions(4, 7))
                      .compile(CompileRequest::fromPattern(pattern));
    ASSERT_TRUE(report.ok()) << report.status().toString();
    std::vector<std::string> names;
    for (const auto &stage : report->stages)
        names.push_back(stage.pass);
    const std::vector<std::string> expected = {
        "PatternBuild", "Partition", "PlaceLocal", "ScheduleList",
        "RefineBdir"};
    EXPECT_EQ(names, expected);
    for (const auto &stage : report->stages) {
        EXPECT_TRUE(stage.status.ok()) << stage.pass;
        EXPECT_GE(stage.millis, 0.0) << stage.pass;
    }
}

// --- Output pins ------------------------------------------------------------

/** FNV-1a of one value's payload encoding. */
template <typename T>
std::uint64_t
payloadHash(const T &value, void (*encode)(BinaryWriter &, const T &))
{
    BinaryWriter writer;
    encode(writer, value);
    return fnv1a64(writer.bytes().data(), writer.bytes().size());
}

/** The exact outcome of one distributed compile. */
struct ResultPin
{
    const char *name;
    Circuit circuit;
    int qpus;
    std::vector<std::uint64_t> localScheduleHashes;
    /** Per QPU, so a routing change fails with a readable count. */
    std::vector<long long> routingFusions;
    std::vector<int> layers;
    std::uint64_t scheduleHash;
    int makespan;
    int lifetime;
    int connectors;
    /** RefineBdir's note, which carries the accepted-move count. */
    const char *bdirNote;
    /** Compile under the CI smoke step's noise config. */
    bool noiseAware = false;
};

/** The CI smoke step's noise.json: connector-heavy loss. */
NoiseConfig
smokeNoiseConfig()
{
    NoiseConfig noise;
    noise.add("delay-line")
        .add("connector", {{"insertion_loss_db", 1.5}})
        .add("fusion");
    return noise;
}

void
expectResultPin(const ResultPin &pin)
{
    SCOPED_TRACE(pin.name);
    auto options = CompileOptions()
                       .numQpus(pin.qpus)
                       .gridSize(19)
                       .useBdir(true)
                       .seed(1);
    if (pin.noiseAware)
        options.noise(smokeNoiseConfig());
    auto report = CompilerDriver(options).compile(
        CompileRequest::fromCircuit(pin.circuit));
    ASSERT_TRUE(report.ok()) << report.status().toString();
    const DcMbqcResult &result = report->result();
    std::vector<std::uint64_t> local_hashes;
    std::vector<long long> routing_fusions;
    std::vector<int> layers;
    for (const LocalSchedule &local : result.localSchedules) {
        local_hashes.push_back(payloadHash(local, &encodeLocalSchedule));
        routing_fusions.push_back(local.routingFusions);
        layers.push_back(static_cast<int>(local.layers.size()));
    }
    EXPECT_EQ(routing_fusions, pin.routingFusions);
    EXPECT_EQ(layers, pin.layers);
    EXPECT_EQ(local_hashes, pin.localScheduleHashes);
    EXPECT_EQ(payloadHash(result.schedule, &encodeSchedule),
              pin.scheduleHash);
    EXPECT_EQ(result.executionTime(), pin.makespan);
    EXPECT_EQ(result.requiredLifetime(), pin.lifetime);
    EXPECT_EQ(result.numConnectors, pin.connectors);
    ASSERT_EQ(report->stages.back().pass, "RefineBdir");
    EXPECT_EQ(report->stages.back().note, pin.bdirNote);
}

TEST(PipelinePins, Qft100On4Qpus)
{
    expectResultPin({"QFT-100/4", makeQft(100), 4,
                     {0x52543772e52a3761ull, 0x2140fcfa6fab587dull,
                      0xfa1e4894111bde06ull, 0x504383dadefdf50eull},
                     {54252, 54947, 54448, 54013},
                     {220, 229, 223, 223},
                     0x5dcb9dab19aadde5ull, 1076, 990, 210,
                     "lifetime 990 -> 990 cycles (0 accepted moves)"});
}

TEST(PipelinePins, Vqe100On8Qpus)
{
    expectResultPin({"VQE-100/8", makeVqe(100), 8,
                     {0x63e050ea83f39888ull, 0xefe686863428d5c9ull,
                      0xbb7c3d3f923071a1ull, 0x80fad2bcfd30975cull,
                      0x4196a39a01f2ff39ull, 0x7d583a908d4a29a7ull,
                      0x4fff25dd7186fc1full, 0x1fec6d6907733439ull},
                     {344, 925, 1254, 552, 1150, 2217, 5131, 7563},
                     {14, 16, 22, 19, 17, 19, 31, 33},
                     0x84ae72ca82184b4dull, 280, 232, 614,
                     "lifetime 236 -> 232 cycles (20 accepted moves)"});
}

TEST(PipelinePins, Qft100On8Qpus)
{
    expectResultPin({"QFT-100/8", makeQft(100), 8,
                     {0x30abdf7a587922d9ull, 0xeac99c25882951b0ull,
                      0x62a241b114d760daull, 0x59753ab1db985221ull,
                      0xa23e014c1ce4ef65ull, 0xac4bacafb6aa419eull,
                      0x643c2f340b5581aaull, 0xe3c4ff407012c97aull},
                     {26788, 27606, 27499, 26636, 27683, 27107, 25271,
                      27739},
                     {115, 112, 115, 112, 112, 112, 105, 117},
                     0x061c7e7afd48c38aull, 780, 526, 411,
                     "lifetime 553 -> 526 cycles (1 accepted moves)"});
}

TEST(PipelinePins, Qaoa100On4Qpus)
{
    // The circuit `dcmbqc compile --family qaoa --seed 1` builds.
    expectResultPin({"QAOA-100/4", makeQaoaMaxcut(100, 1), 4,
                     {0x9521828812438ca3ull, 0x751c8855781ddef3ull,
                      0x327963c30d6413bcull, 0x19c55699504767bcull},
                     {339, 439, 1408, 6036},
                     {45, 38, 36, 45},
                     0xd2502f332c1bab98ull, 400, 336, 317,
                     "lifetime 354 -> 336 cycles (7 accepted moves)"});
}

TEST(PipelinePins, Qaoa100On4QpusNoiseAware)
{
    // The noise-aware partition search picks the noise-blind
    // partition here, so the local schedules match the pin above;
    // only RefineBdir's objective moves the schedule.
    expectResultPin({"QAOA-100/4 noise-aware", makeQaoaMaxcut(100, 1), 4,
                     {0x9521828812438ca3ull, 0x751c8855781ddef3ull,
                      0x327963c30d6413bcull, 0x19c55699504767bcull},
                     {339, 439, 1408, 6036},
                     {45, 38, 36, 45},
                     0xfdb7a7cda26e5624ull, 400, 348, 317,
                     "lifetime 354 -> 348 cycles (19 accepted moves, "
                     "noise-aware objective)",
                     true});
}

} // namespace
} // namespace dcmbqc

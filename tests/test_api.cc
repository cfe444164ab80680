/**
 * @file
 * Tests of the pass-based public API: options validation and the
 * Status/Expected error channel (no aborts on caller mistakes),
 * entry-point coverage, observer hooks, seed plumbing, and
 * batch-compilation determinism.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <limits>
#include <thread>

#include "api/api.hh"
#include "api/cancellation.hh"
#include "circuit/generators.hh"
#include "mbqc/dependency.hh"
#include "mbqc/pattern_builder.hh"
#include "driver_helpers.hh"

namespace dcmbqc
{
namespace
{

// --- Options validation ---------------------------------------------------

TEST(CompileOptionsApi, DefaultsAreValid)
{
    EXPECT_TRUE(CompileOptions().validate().ok());
}

TEST(CompileOptionsApi, RejectsNonPositiveQpus)
{
    const auto status = CompileOptions().numQpus(0).validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::InvalidConfig);
    EXPECT_NE(status.message().find("numQpus"), std::string::npos);
}

TEST(CompileOptionsApi, RejectsBadKmaxAndGrid)
{
    const auto status =
        CompileOptions().kmax(0).gridSize(-3).validate();
    ASSERT_FALSE(status.ok());
    // All violations are reported at once, not just the first.
    EXPECT_NE(status.message().find("kmax"), std::string::npos);
    EXPECT_NE(status.message().find("grid"), std::string::npos);
}

TEST(CompileOptionsApi, RejectsOverReservedBoundary)
{
    const auto status =
        CompileOptions().gridSize(5).reservedBoundary(2).validate();
    ASSERT_FALSE(status.ok());
    EXPECT_NE(status.message().find("usable"), std::string::npos);
}

TEST(CompileOptionsApi, RejectsBadAnnealingParameters)
{
    EXPECT_FALSE(
        CompileOptions().bdirCoolingRate(1.5).validate().ok());
    EXPECT_FALSE(
        CompileOptions().bdirInitialTemperature(0.0).validate().ok());
    EXPECT_FALSE(CompileOptions().gamma(1.0).validate().ok());
    EXPECT_FALSE(CompileOptions().alphaMax(0.5).validate().ok());
}

TEST(CompileOptionsApi, BuildNormalizesPartitionK)
{
    DcMbqcConfig raw;
    raw.numQpus = 8;
    raw.partition.k = 2; // conflicting user-set value

    std::vector<std::string> notes;
    auto built = CompileOptions::fromConfig(raw).build(&notes);
    ASSERT_TRUE(built.ok());
    EXPECT_EQ(built->partition.k, 8);
    ASSERT_EQ(notes.size(), 1u);
    EXPECT_NE(notes[0].find("partition.k"), std::string::npos);
}

TEST(CompileOptionsApi, SeedPlumbsIntoBothStochasticPasses)
{
    const auto options = CompileOptions().seed(12345);
    EXPECT_EQ(options.config().partition.seed, 12345u);
    EXPECT_EQ(options.config().bdir.seed, 12345u);
}

// --- Request validation / error channel -----------------------------------

TEST(CompileRequestApi, RejectsEmptyCircuit)
{
    const auto request =
        CompileRequest::fromCircuit(Circuit(3, "empty"));
    const auto status = request.validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::InvalidArgument);

    auto report = CompilerDriver().compile(request);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::InvalidArgument);
}

TEST(CompileRequestApi, RejectsGraphDepsSizeMismatch)
{
    Graph g(4, {{0, 1}});
    Digraph deps(3);
    auto report = CompilerDriver().compile(
        CompileRequest::fromGraph(g, deps));
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::InvalidArgument);
}

TEST(CompileRequestApi, RejectsCyclicDependencyGraph)
{
    Graph g(2, {{0, 1}});
    const Digraph deps(2, {{0, 1}, {1, 0}});
    auto report = CompilerDriver().compile(
        CompileRequest::fromGraph(g, deps));
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(report.status().message().find("cycle"),
              std::string::npos);
}

TEST(CompileRequestApi, RejectsNonFiniteCircuitAngle)
{
    const auto request = CompileRequest::fromCircuit(
        test::rzCircuit(std::numeric_limits<double>::quiet_NaN()));
    const Status status = request.validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::InvalidArgument);
    EXPECT_NE(status.message().find("gate 2 ("), std::string::npos)
        << status.message();

    auto report =
        CompilerDriver(CompileOptions().numQpus(2).gridSize(7))
            .compile(request);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::InvalidArgument);
}

TEST(CompileRequestApi, RejectsNonFinitePatternAngle)
{
    const Pattern pattern = buildPattern(test::rzCircuit(0.5));
    const NodeId u = pattern.measurementOrder().back();
    const auto request = CompileRequest::fromPattern(test::withNodeAngle(
        pattern, u, std::numeric_limits<double>::infinity()));
    const Status status = request.validate();
    ASSERT_FALSE(status.ok());
    EXPECT_EQ(status.code(), StatusCode::InvalidArgument);
    EXPECT_NE(status.message().find("node " + std::to_string(u)),
              std::string::npos)
        << status.message();
}

TEST(CompileRequestApi, NodeTooLargeForTheGridIsInvalidArgument)
{
    // QAOA-100 has nodes whose degree exceeds what an empty 7x7
    // layer can host: both pipelines must answer with a Status.
    const CompilerDriver driver(CompileOptions().numQpus(4).gridSize(7));
    const auto request = CompileRequest::fromCircuit(makeQaoaMaxcut(100));

    auto report = driver.compile(request);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(report.status().message().find("does not fit on an "
                                             "empty 7x7 layer"),
              std::string::npos)
        << report.status().toString();

    auto baseline = driver.compileBaseline(request);
    ASSERT_FALSE(baseline.ok());
    EXPECT_EQ(baseline.status().code(), StatusCode::InvalidArgument);
    EXPECT_NE(baseline.status().message().find("7x7"),
              std::string::npos)
        << baseline.status().toString();
}

TEST(CompilerDriverApi, InvalidOptionsSurfaceAtCompileTime)
{
    // Constructing a driver from bad options must not abort; the
    // error is reported per compile call.
    const CompilerDriver driver(CompileOptions().numQpus(-2));
    auto report = driver.compile(
        CompileRequest::fromCircuit(makeQft(4)));
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::InvalidConfig);
}

// --- Entry points ---------------------------------------------------------

TEST(CompilerDriverApi, AllEntryPointsAgree)
{
    const Circuit circuit = makeQft(7);
    const Pattern pattern = buildPattern(circuit);
    const Digraph deps = realTimeDependencyGraph(pattern);

    const CompilerDriver driver(
        CompileOptions().numQpus(4).gridSize(7));
    auto from_circuit =
        driver.compile(CompileRequest::fromCircuit(circuit));
    auto from_pattern =
        driver.compile(CompileRequest::fromPattern(pattern));
    auto from_graph = driver.compile(
        CompileRequest::fromGraph(pattern.graph(), deps));

    ASSERT_TRUE(from_circuit.ok());
    ASSERT_TRUE(from_pattern.ok());
    ASSERT_TRUE(from_graph.ok());

    const auto &a = from_circuit->result();
    const auto &b = from_pattern->result();
    const auto &c = from_graph->result();
    EXPECT_EQ(a.executionTime(), b.executionTime());
    EXPECT_EQ(a.executionTime(), c.executionTime());
    EXPECT_EQ(a.requiredLifetime(), b.requiredLifetime());
    EXPECT_EQ(a.requiredLifetime(), c.requiredLifetime());
    EXPECT_EQ(a.partition.assignment(), b.partition.assignment());
    EXPECT_EQ(a.partition.assignment(), c.partition.assignment());
}

TEST(CompilerDriverApi, ImbalanceIsMeasuredOnTheCompiledGraph)
{
    // A Circuit entry moves the pattern it built into the report; the
    // imbalance must be taken on that graph, not on the moved-from one
    // (whose empty node weights read 1.0 on every Circuit compile).
    const Circuit circuit = makeQaoaMaxcut(16);
    const Pattern pattern = buildPattern(circuit);
    const CompilerDriver driver(
        CompileOptions().numQpus(4).gridSize(7).seed(42));
    auto from_circuit =
        driver.compile(CompileRequest::fromCircuit(circuit));
    auto from_pattern =
        driver.compile(CompileRequest::fromPattern(pattern));
    ASSERT_TRUE(from_circuit.ok()) << from_circuit.status().toString();
    ASSERT_TRUE(from_pattern.ok()) << from_pattern.status().toString();
    ASSERT_TRUE(from_circuit->pattern.has_value());

    const Graph &graph = from_circuit->pattern->graph();
    const auto &a = from_circuit->result();
    const auto &b = from_pattern->result();
    EXPECT_EQ(a.partitionImbalance, a.partition.imbalance(graph));
    EXPECT_EQ(b.partitionImbalance, b.partition.imbalance(graph));
    EXPECT_EQ(a.partitionImbalance, b.partitionImbalance);
    EXPECT_GT(a.partitionImbalance, 1.0);
}

TEST(CompilerDriverApi, StageListMatchesEntryPoint)
{
    const Circuit circuit = makeQft(5);
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7));

    auto full = driver.compile(CompileRequest::fromCircuit(circuit));
    ASSERT_TRUE(full.ok());
    ASSERT_FALSE(full->stages.empty());
    EXPECT_EQ(full->stages.front().pass, "Transpile");
    EXPECT_EQ(full->stages.back().pass, "RefineBdir");

    auto base =
        driver.compileBaseline(CompileRequest::fromCircuit(circuit));
    ASSERT_TRUE(base.ok());
    EXPECT_EQ(base->stages.back().pass, "PlaceBaseline");
    EXPECT_TRUE(base->baseline.has_value());
    EXPECT_FALSE(base->distributed.has_value());
}

TEST(CompilerDriverApi, BdirPassSkippedWhenDisabled)
{
    auto options = CompileOptions().numQpus(2).gridSize(7);
    options.useBdir(false);
    auto report = CompilerDriver(options).compile(
        CompileRequest::fromCircuit(makeQft(5)));
    ASSERT_TRUE(report.ok());
    for (const auto &stage : report->stages)
        EXPECT_NE(stage.pass, "RefineBdir");
}

// --- Observer hooks -------------------------------------------------------

class CountingObserver : public PassObserver
{
  public:
    void
    onPassBegin(const std::string &, const Pass &) override
    {
        ++begins;
    }

    void
    onPassEnd(const std::string &, const Pass &,
              const StageReport &report) override
    {
        ++ends;
        order.push_back(report.pass);
    }

    int begins = 0;
    int ends = 0;
    std::vector<std::string> order;
};

TEST(CompilerDriverApi, ObserverSeesEveryPassInOrder)
{
    CountingObserver observer;
    CompilerDriver driver(CompileOptions().numQpus(2).gridSize(7));
    driver.addObserver(&observer);
    auto report =
        driver.compile(CompileRequest::fromCircuit(makeQft(5)));
    ASSERT_TRUE(report.ok());
    EXPECT_EQ(observer.begins, observer.ends);
    EXPECT_EQ(observer.order.size(), report->stages.size());
    for (std::size_t i = 0; i < observer.order.size(); ++i)
        EXPECT_EQ(observer.order[i], report->stages[i].pass);
}

// --- Batch compilation ----------------------------------------------------

TEST(CompilerDriverApi, BatchMatchesSequential)
{
    const CompilerDriver driver(
        CompileOptions().numQpus(4).gridSize(7).seed(99));

    std::vector<CompileRequest> requests;
    for (int qubits : {5, 6, 7, 8, 9})
        requests.push_back(
            CompileRequest::fromCircuit(makeQft(qubits)));

    const auto batched = driver.compileBatch(requests, 4);
    ASSERT_EQ(batched.size(), requests.size());

    for (std::size_t i = 0; i < requests.size(); ++i) {
        ASSERT_TRUE(batched[i].ok()) << batched[i].status().toString();
        auto sequential = driver.compile(requests[i]);
        ASSERT_TRUE(sequential.ok());
        const auto &a = batched[i]->result();
        const auto &b = sequential->result();
        EXPECT_EQ(a.executionTime(), b.executionTime()) << i;
        EXPECT_EQ(a.requiredLifetime(), b.requiredLifetime()) << i;
        EXPECT_EQ(a.partition.assignment(), b.partition.assignment())
            << i;
    }
}

TEST(CompilerDriverApi, BatchIsDeterministicAcrossRuns)
{
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(7));
    std::vector<CompileRequest> requests;
    for (int qubits : {5, 6, 7})
        requests.push_back(
            CompileRequest::fromCircuit(makeVqe(qubits)));

    const auto first = driver.compileBatch(requests, 3);
    const auto second = driver.compileBatch(requests, 2);
    ASSERT_EQ(first.size(), second.size());
    for (std::size_t i = 0; i < first.size(); ++i) {
        ASSERT_TRUE(first[i].ok());
        ASSERT_TRUE(second[i].ok());
        EXPECT_EQ(first[i]->result().executionTime(),
                  second[i]->result().executionTime());
        EXPECT_EQ(first[i]->result().partition.assignment(),
                  second[i]->result().partition.assignment());
    }
}

TEST(CompilerDriverApi, BatchIsolatesFailures)
{
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7));
    std::vector<CompileRequest> requests;
    requests.push_back(CompileRequest::fromCircuit(makeQft(5)));
    requests.push_back(
        CompileRequest::fromCircuit(Circuit(2, "empty")));
    requests.push_back(CompileRequest::fromCircuit(makeQft(6)));

    const auto reports = driver.compileBatch(requests, 2);
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_TRUE(reports[0].ok());
    ASSERT_FALSE(reports[1].ok());
    EXPECT_EQ(reports[1].status().code(),
              StatusCode::InvalidArgument);
    EXPECT_TRUE(reports[2].ok());
}

// --- Status / Expected plumbing -------------------------------------------

TEST(StatusApi, ToStringCarriesCodeAndMessage)
{
    const auto status = Status::invalidConfig("kmax must be >= 1");
    EXPECT_EQ(status.toString(), "INVALID_CONFIG: kmax must be >= 1");
    EXPECT_EQ(Status::okStatus().toString(), "OK");
}

TEST(StatusApi, ExpectedHoldsValueOrStatus)
{
    Expected<int> good(42);
    ASSERT_TRUE(good.ok());
    EXPECT_EQ(good.value(), 42);
    EXPECT_TRUE(good.status().ok());

    Expected<int> bad(Status::internal("boom"));
    ASSERT_FALSE(bad.ok());
    EXPECT_EQ(bad.status().code(), StatusCode::Internal);
}

// --- Cancellation and deadlines -------------------------------------------

TEST(CancellationApi, PreCancelledRequestRunsNoPasses)
{
    CancellationToken token;
    token.cancel();

    CountingObserver observer;
    CompilerDriver driver(CompileOptions().numQpus(2).gridSize(7));
    driver.addObserver(&observer);

    CompileRequest request =
        CompileRequest::fromCircuit(makeQft(5), "doomed");
    request.withCancellation(&token);
    auto report = driver.compile(request);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::Cancelled);
    EXPECT_EQ(observer.ends, 0);
}

TEST(CancellationApi, ExpiredDeadlineAbortsAtPassBoundary)
{
    CancellationToken token;
    token.setDeadlineAfterMillis(1);
    std::this_thread::sleep_for(std::chrono::milliseconds(5));

    CompilerDriver driver(CompileOptions().numQpus(2).gridSize(7));
    CompileRequest request =
        CompileRequest::fromCircuit(makeQft(5), "late");
    request.withCancellation(&token);
    auto report = driver.compile(request);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::DeadlineExceeded);
}

TEST(CancellationApi, DisarmedDeadlineCompiles)
{
    CancellationToken token;
    token.setDeadlineAfterMillis(1);
    token.setDeadlineAfterMillis(0); // 0 disarms
    std::this_thread::sleep_for(std::chrono::milliseconds(5));
    EXPECT_TRUE(token.check().ok());

    CompilerDriver driver(CompileOptions().numQpus(2).gridSize(7));
    CompileRequest request = CompileRequest::fromCircuit(makeQft(5));
    request.withCancellation(&token);
    EXPECT_TRUE(driver.compile(request).ok());
}

} // namespace
} // namespace dcmbqc

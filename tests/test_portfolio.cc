/**
 * @file
 * Tests of the compile-strategy portfolio subsystem: the
 * StrategySpace enumeration, the PortfolioRacer's winner selection /
 * determinism / cancellation semantics, the driver's
 * `CompileOptions::portfolio(K)` integration, and the serialization
 * surface (report artifact bit, ServiceJob passenger, ServiceStats
 * counters, JSON rendering).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "api/api.hh"
#include "api/cancellation.hh"
#include "cache/compile_cache.hh"
#include "circuit/generators.hh"
#include "circuit/huge_generators.hh"
#include "portfolio/racer.hh"
#include "portfolio/strategy.hh"
#include "serialize/codecs.hh"
#include "serialize/json.hh"
#include "service/metrics.hh"
#include "service/protocol.hh"

namespace dcmbqc
{
namespace
{

CompileOptions
baseOptions()
{
    return CompileOptions().numQpus(2).gridSize(7).seed(11);
}

CompileRequest
cliffordRequest(std::uint64_t seed = 33)
{
    return CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(/*qubits=*/4, /*gates=*/14, seed),
        "portfolio-test");
}

TEST(StrategySpace, EnumeratesUniqueStrategiesWithDefaultFirst)
{
    const auto strategies =
        StrategySpace(baseOptions().portfolio(8)).enumerate(10);
    ASSERT_EQ(strategies.size(), 10u);
    EXPECT_EQ(strategies[0].name, "default");

    std::set<std::string> names;
    for (const Strategy &s : strategies) {
        EXPECT_TRUE(names.insert(s.name).second)
            << "duplicate strategy name " << s.name;
        // A candidate never races recursively.
        EXPECT_EQ(s.options.portfolioCandidates(), 1);
        EXPECT_TRUE(s.options.validate().ok()) << s.name;
    }

    // Re-seeded replicas really change the stochastic-pass seeds.
    EXPECT_EQ(strategies[7].name, "seed+1");
    EXPECT_NE(strategies[7].options.config().partition.seed,
              strategies[0].options.config().partition.seed);
    EXPECT_NE(strategies[8].options.config().partition.seed,
              strategies[7].options.config().partition.seed);
}

TEST(StrategySpace, DefaultCandidateIsTheBaseConfiguration)
{
    const CompileOptions base = baseOptions();
    const auto strategies = StrategySpace(base).enumerate(1);
    ASSERT_EQ(strategies.size(), 1u);
    const DcMbqcConfig &a = strategies[0].options.config();
    const DcMbqcConfig &b = base.config();
    EXPECT_EQ(a.numQpus, b.numQpus);
    EXPECT_EQ(a.partition.seed, b.partition.seed);
    EXPECT_EQ(a.bdir.seed, b.bdir.seed);
    EXPECT_EQ(a.useBdir, b.useBdir);
    EXPECT_EQ(a.order, b.order);
}

TEST(PortfolioOptions, CandidateCountIsValidated)
{
    EXPECT_FALSE(baseOptions().portfolio(0).validate().ok());
    EXPECT_FALSE(baseOptions().portfolio(-3).validate().ok());
    EXPECT_FALSE(baseOptions().portfolio(65).validate().ok());
    EXPECT_TRUE(baseOptions().portfolio(1).validate().ok());
    EXPECT_TRUE(baseOptions().portfolio(64).validate().ok());

    const Status bad = baseOptions().portfolio(0).validate();
    EXPECT_NE(bad.message().find("portfolio"), std::string::npos);
}

TEST(PortfolioDriver, RaceAttachesReportAndNeverLosesToDefault)
{
    const CompilerDriver driver(baseOptions().portfolio(4));
    auto report = driver.compile(cliffordRequest());
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_TRUE(report->distributed.has_value());

    ASSERT_TRUE(report->portfolio.has_value());
    const PortfolioReport &race = *report->portfolio;
    EXPECT_EQ(race.requested, 4);
    ASSERT_EQ(race.candidates.size(), 4u);
    ASSERT_GE(race.winnerIndex, 0);
    ASSERT_LT(race.winnerIndex, 4);
    EXPECT_TRUE(race.candidates[race.winnerIndex].winner);
    EXPECT_EQ(race.candidates[0].strategy, "default");

    // The "never worse than K=1" guarantee: the winner's score is at
    // least the default strategy's.
    ASSERT_TRUE(race.candidates[0].status.ok());
    EXPECT_GE(race.candidates[race.winnerIndex].logSurvival,
              race.candidates[0].logSurvival);

    // The race shows up as a timed stage of the winning report.
    const auto stage = std::find_if(
        report->stages.begin(), report->stages.end(),
        [](const StageReport &s) { return s.pass == "Portfolio"; });
    ASSERT_NE(stage, report->stages.end());
    EXPECT_NE(stage->note.find("winner"), std::string::npos);
}

TEST(PortfolioDriver, RaceOverAStreamedInputScoresItsCandidates)
{
    // A streamed entry is scored from the pattern its compile
    // retains, exactly as a circuit entry is.
    const CompilerDriver driver(baseOptions().portfolio(2));
    auto report = driver.compile(CompileRequest::fromCircuitStream(
        makeGraphStateStream(6, 6)));
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_TRUE(report->portfolio.has_value());
    const PortfolioReport &race = *report->portfolio;
    ASSERT_EQ(race.candidates.size(), 2u);
    ASSERT_TRUE(race.candidates[0].status.ok())
        << race.candidates[0].status.toString();
    ASSERT_GE(race.winnerIndex, 0);
    EXPECT_GE(race.candidates[race.winnerIndex].logSurvival,
              race.candidates[0].logSurvival);
}

TEST(PortfolioDriver, RacesAreDeterministic)
{
    const CompilerDriver driver(baseOptions().portfolio(6));
    auto first = driver.compile(cliffordRequest(77));
    auto second = driver.compile(cliffordRequest(77));
    ASSERT_TRUE(first.ok()) << first.status().toString();
    ASSERT_TRUE(second.ok()) << second.status().toString();

    ASSERT_TRUE(first->portfolio.has_value());
    ASSERT_TRUE(second->portfolio.has_value());
    EXPECT_EQ(first->portfolio->winnerIndex,
              second->portfolio->winnerIndex);
    for (std::size_t i = 0; i < 6; ++i) {
        EXPECT_EQ(first->portfolio->candidates[i].strategy,
                  second->portfolio->candidates[i].strategy);
        EXPECT_DOUBLE_EQ(
            first->portfolio->candidates[i].logSurvival,
            second->portfolio->candidates[i].logSurvival);
    }
    // The winning schedule itself is bit-identical.
    EXPECT_EQ(first->distributed->schedule.mainStart,
              second->distributed->schedule.mainStart);
    EXPECT_EQ(first->distributed->schedule.makespan,
              second->distributed->schedule.makespan);
}

TEST(PortfolioDriver, CandidatesShareTheCompileCache)
{
    auto cache = std::make_shared<CompileCache>();
    const CompilerDriver driver(
        baseOptions().portfolio(4).cache(cache));

    auto cold = driver.compile(cliffordRequest(5));
    ASSERT_TRUE(cold.ok()) << cold.status().toString();
    auto warm = driver.compile(cliffordRequest(5));
    ASSERT_TRUE(warm.ok()) << warm.status().toString();

    ASSERT_TRUE(warm->portfolio.has_value());
    for (const PortfolioCandidate &entry :
         warm->portfolio->candidates) {
        ASSERT_TRUE(entry.status.ok()) << entry.strategy;
        EXPECT_TRUE(entry.cacheHit) << entry.strategy;
    }
    EXPECT_TRUE(warm->cacheHit);
    EXPECT_EQ(warm->distributed->schedule.mainStart,
              cold->distributed->schedule.mainStart);
}

TEST(PortfolioDriver, PreCancelledParentAbortsTheRace)
{
    CancellationToken token;
    token.cancel();
    CompileRequest request = cliffordRequest();
    request.withCancellation(&token);

    const CompilerDriver driver(baseOptions().portfolio(4));
    auto report = driver.compile(request);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.status().code(), StatusCode::Cancelled);
}

TEST(PortfolioRacerApi, ZeroGraceCancelsStragglersDeterministically)
{
    // One worker thread serializes the race: the default strategy
    // finishes first and, with a zero grace budget, cancels every
    // other candidate before it starts.
    RaceConfig config;
    config.candidates = 4;
    config.numThreads = 1;
    config.graceMillis = 0;

    const PortfolioRacer racer(baseOptions(), config);
    auto outcome = racer.race(cliffordRequest());
    ASSERT_TRUE(outcome.ok()) << outcome.status().toString();

    const PortfolioReport &race = outcome->race;
    EXPECT_EQ(race.winnerIndex, 0);
    EXPECT_EQ(race.cancelledEarly, 3);
    for (std::size_t i = 1; i < race.candidates.size(); ++i)
        EXPECT_TRUE(race.candidates[i].cancelled) << i;
    EXPECT_TRUE(outcome->report.distributed.has_value());
}

TEST(PortfolioRacerApi, ValidatesTheWinnerOnTheScheduleBackend)
{
    RaceConfig config;
    config.candidates = 3;
    config.validateWinner = true;

    const PortfolioRacer racer(baseOptions(), config);
    auto outcome = racer.race(cliffordRequest());
    ASSERT_TRUE(outcome.ok()) << outcome.status().toString();
    EXPECT_TRUE(outcome->race.validated);
    EXPECT_NE(outcome->race.validationNote.find("schedule backend"),
              std::string::npos);
}

TEST(PortfolioSerialize, ReportArtifactRoundTripsTheRaceTable)
{
    const CompilerDriver driver(baseOptions().portfolio(3));
    auto report = driver.compile(cliffordRequest(21));
    ASSERT_TRUE(report.ok()) << report.status().toString();
    ASSERT_TRUE(report->portfolio.has_value());

    const auto bytes = encodeCompileReportArtifact(*report);
    auto decoded = decodeCompileReportArtifact(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();

    ASSERT_TRUE(decoded->portfolio.has_value());
    const PortfolioReport &a = *report->portfolio;
    const PortfolioReport &b = *decoded->portfolio;
    EXPECT_EQ(a.requested, b.requested);
    EXPECT_EQ(a.winnerIndex, b.winnerIndex);
    EXPECT_EQ(a.cancelledEarly, b.cancelledEarly);
    EXPECT_EQ(a.validated, b.validated);
    EXPECT_EQ(a.validationNote, b.validationNote);
    ASSERT_EQ(a.candidates.size(), b.candidates.size());
    for (std::size_t i = 0; i < a.candidates.size(); ++i) {
        EXPECT_EQ(a.candidates[i].strategy,
                  b.candidates[i].strategy);
        EXPECT_EQ(a.candidates[i].seed, b.candidates[i].seed);
        EXPECT_EQ(a.candidates[i].status.code(),
                  b.candidates[i].status.code());
        EXPECT_DOUBLE_EQ(a.candidates[i].logSurvival,
                         b.candidates[i].logSurvival);
        EXPECT_EQ(a.candidates[i].makespan,
                  b.candidates[i].makespan);
        EXPECT_EQ(a.candidates[i].connectors,
                  b.candidates[i].connectors);
        EXPECT_EQ(a.candidates[i].cacheHit,
                  b.candidates[i].cacheHit);
        EXPECT_EQ(a.candidates[i].cancelled,
                  b.candidates[i].cancelled);
        EXPECT_EQ(a.candidates[i].winner, b.candidates[i].winner);
    }

    // And the race table renders in the JSON view.
    const std::string json = toJson(*report);
    EXPECT_NE(json.find("\"portfolio\""), std::string::npos);
    EXPECT_NE(json.find("\"winnerIndex\""), std::string::npos);
}

TEST(PortfolioSerialize, ServiceJobCarriesTheCandidateCount)
{
    ServiceJob job;
    job.request = cliffordRequest();
    job.portfolio = 8;

    const auto bytes = encodeServiceJob(job);
    auto decoded = decodeServiceJob(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->portfolio, 8u);
    EXPECT_EQ(encodeServiceJob(*decoded), bytes);

    job.portfolio = 65;
    auto rejected = decodeServiceJob(encodeServiceJob(job));
    ASSERT_FALSE(rejected.ok());
    EXPECT_NE(rejected.status().message().find("portfolio"),
              std::string::npos);
}

TEST(PortfolioSerialize, ServiceStatsRoundTripsTheRaceCounters)
{
    ServiceStats stats;
    stats.portfolioRaces = 5;
    stats.portfolioCandidates = 30;
    stats.portfolioCancelledEarly = 7;
    stats.portfolioWinners.push_back({"bdir-hot", 3});
    stats.portfolioWinners.push_back({"default", 2});

    const auto bytes = encodeServiceStats(stats);
    auto decoded = decodeServiceStats(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    EXPECT_EQ(decoded->portfolioRaces, 5u);
    EXPECT_EQ(decoded->portfolioCandidates, 30u);
    EXPECT_EQ(decoded->portfolioCancelledEarly, 7u);
    ASSERT_EQ(decoded->portfolioWinners.size(), 2u);
    EXPECT_EQ(decoded->portfolioWinners[0].strategy, "bdir-hot");
    EXPECT_EQ(decoded->portfolioWinners[0].wins, 3u);
    EXPECT_EQ(encodeServiceStats(*decoded), bytes);

    const std::string json = toJson(*decoded);
    EXPECT_NE(json.find("\"portfolio\""), std::string::npos);
    EXPECT_NE(json.find("\"races\""), std::string::npos);
    EXPECT_NE(json.find("\"cancelledEarly\""), std::string::npos);
}

TEST(PortfolioMetrics, RecordRaceFeedsTheWinnerHistogram)
{
    PortfolioReport race;
    race.requested = 3;
    race.winnerIndex = 1;
    race.cancelledEarly = 1;
    race.candidates.resize(3);
    race.candidates[0].strategy = "default";
    race.candidates[1].strategy = "bdir-hot";
    race.candidates[2].strategy = "bdir-off";

    ServiceMetrics metrics;
    metrics.recordRace(race);
    race.winnerIndex = 0;
    metrics.recordRace(race);
    metrics.recordRace(race);

    const ServiceStats stats = metrics.snapshot();
    EXPECT_EQ(stats.portfolioRaces, 3u);
    EXPECT_EQ(stats.portfolioCandidates, 9u);
    EXPECT_EQ(stats.portfolioCancelledEarly, 3u);
    ASSERT_EQ(stats.portfolioWinners.size(), 2u);
    EXPECT_EQ(stats.portfolioWinners[0].strategy, "default");
    EXPECT_EQ(stats.portfolioWinners[0].wins, 2u);
    EXPECT_EQ(stats.portfolioWinners[1].strategy, "bdir-hot");
    EXPECT_EQ(stats.portfolioWinners[1].wins, 1u);
}

} // namespace
} // namespace dcmbqc

/**
 * @file
 * Tests of the content-addressed compile cache: a hit replays a
 * bit-identical schedule while skipping every pass (verified with
 * observer hooks and surfaced in CompileReport), LRU eviction,
 * key sensitivity to seed/config/payload changes, the disk tier,
 * and deterministic concurrent compileBatch with duplicates.
 */

#include <gtest/gtest.h>

#include <cstdio>
#include <filesystem>
#include <memory>

#include "api/api.hh"
#include "cache/cache_key.hh"
#include "cache/compile_cache.hh"
#include "circuit/generators.hh"
#include "serialize/codecs.hh"

namespace dcmbqc
{
namespace
{

class PassCounter : public PassObserver
{
  public:
    void
    onPassEnd(const std::string &, const Pass &,
              const StageReport &) override
    {
        ++passes;
    }

    int passes = 0;
};

void
expectSameDistributedResult(const DcMbqcResult &a,
                            const DcMbqcResult &b)
{
    EXPECT_EQ(a.partition.assignment(), b.partition.assignment());
    EXPECT_EQ(a.schedule.mainStart, b.schedule.mainStart);
    EXPECT_EQ(a.schedule.syncStart, b.schedule.syncStart);
    EXPECT_EQ(a.schedule.makespan, b.schedule.makespan);
    EXPECT_EQ(a.metrics.tauLocal, b.metrics.tauLocal);
    EXPECT_EQ(a.metrics.tauRemote, b.metrics.tauRemote);
    EXPECT_EQ(a.numConnectors, b.numConnectors);
    ASSERT_EQ(a.localSchedules.size(), b.localSchedules.size());
    for (std::size_t i = 0; i < a.localSchedules.size(); ++i) {
        EXPECT_EQ(a.localSchedules[i].nodeLayer,
                  b.localSchedules[i].nodeLayer);
        EXPECT_EQ(a.localSchedules[i].edgeFusions,
                  b.localSchedules[i].edgeFusions);
        EXPECT_EQ(a.localSchedules[i].routingFusions,
                  b.localSchedules[i].routingFusions);
    }
}

TEST(CompileCacheApi, HitReplaysBitIdenticalScheduleWithoutPasses)
{
    auto cache = std::make_shared<CompileCache>();
    PassCounter counter;
    CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(11).cache(cache));
    driver.addObserver(&counter);

    const auto request =
        CompileRequest::fromCircuit(makeQft(6), "cached");
    auto miss = driver.compile(request);
    ASSERT_TRUE(miss.ok()) << miss.status().toString();
    EXPECT_FALSE(miss->cacheHit);
    EXPECT_NE(miss->cacheKey, 0u);
    ASSERT_TRUE(miss->cacheStats.has_value());
    EXPECT_EQ(miss->cacheStats->misses, 1u);
    const int passes_after_miss = counter.passes;
    EXPECT_GT(passes_after_miss, 0);

    auto hit = driver.compile(request);
    ASSERT_TRUE(hit.ok()) << hit.status().toString();
    EXPECT_TRUE(hit->cacheHit);
    EXPECT_EQ(hit->cacheKey, miss->cacheKey);
    EXPECT_EQ(hit->label, "cached");
    ASSERT_TRUE(hit->cacheStats.has_value());
    EXPECT_EQ(hit->cacheStats->hits, 1u);

    // No pass ran on the hit path...
    EXPECT_EQ(counter.passes, passes_after_miss);
    // ...yet the replayed schedule is bit-identical.
    expectSameDistributedResult(miss->result(), hit->result());
}

TEST(CompileCacheApi, CachedEqualsUncachedCompilation)
{
    const auto request =
        CompileRequest::fromCircuit(makeVqe(6), "vqe");
    const auto options =
        CompileOptions().numQpus(4).gridSize(7).seed(3);

    auto uncached = CompilerDriver(options).compile(request);
    ASSERT_TRUE(uncached.ok());

    auto cache = std::make_shared<CompileCache>();
    auto with_cache = CompileOptions(options).cache(cache);
    const CompilerDriver driver(with_cache);
    auto warm = driver.compile(request);
    auto replay = driver.compile(request);
    ASSERT_TRUE(warm.ok());
    ASSERT_TRUE(replay.ok());
    EXPECT_TRUE(replay->cacheHit);
    expectSameDistributedResult(uncached->result(),
                                replay->result());
}

TEST(CompileCacheApi, SeedAndConfigAndPayloadChangesMiss)
{
    const Circuit circuit = makeQft(6);
    const auto request = CompileRequest::fromCircuit(circuit);

    const auto base =
        CompileOptions().numQpus(2).gridSize(7).seed(1);
    const auto key = [&](const CompileOptions &options,
                         const CompileRequest &req,
                         bool baseline = false) {
        return computeCacheKey(req, options.build().value(), baseline)
            .key;
    };

    const std::uint64_t reference = key(base, request);
    EXPECT_NE(reference,
              key(CompileOptions(base).seed(2), request));
    EXPECT_NE(reference,
              key(CompileOptions(base).numQpus(4), request));
    EXPECT_NE(reference,
              key(CompileOptions(base).kmax(2), request));
    EXPECT_NE(reference,
              key(CompileOptions(base).useBdir(false), request));
    EXPECT_NE(reference,
              key(base,
                  CompileRequest::fromCircuit(makeQft(7))));
    EXPECT_NE(reference, key(base, request, /*baseline=*/true));

    // Labels are metadata: same content, same key.
    EXPECT_EQ(reference,
              key(base, CompileRequest::fromCircuit(
                            circuit, "other-label")));

    // Key and verifier are independent hashes of the same bytes.
    const CacheKeyPair pair =
        computeCacheKey(request, base.build().value(), false);
    EXPECT_NE(pair.key, pair.verifier);
}

TEST(CompileCacheApi, VerifierMismatchIsTreatedAsMiss)
{
    // Simulate a 64-bit key collision: plant a decodable report
    // with a wrong verifier under the key the driver will compute.
    auto cache = std::make_shared<CompileCache>();
    const auto options =
        CompileOptions().numQpus(2).gridSize(7).seed(4);
    const auto request = CompileRequest::fromCircuit(makeQft(5));
    const CacheKeyPair pair =
        computeCacheKey(request, options.build().value(), false);

    CompilerDriver planted(CompileOptions(options).cache(cache));
    auto real = planted.compile(request);
    ASSERT_TRUE(real.ok());
    CompileReport foreign = *real;
    foreign.cacheVerifier = pair.verifier ^ 1;
    cache->insert(pair.key, encodeCompileReportArtifact(foreign));

    auto report = planted.compile(request);
    ASSERT_TRUE(report.ok());
    EXPECT_FALSE(report->cacheHit); // collision detected, recompiled
    EXPECT_EQ(report->cacheVerifier, pair.verifier);
    // The rejected lookup is reclassified as a miss, not a hit:
    // one real miss + one collision miss, zero replays.
    ASSERT_TRUE(report->cacheStats.has_value());
    EXPECT_EQ(report->cacheStats->hits, 0u);
    EXPECT_EQ(report->cacheStats->misses, 2u);
}

TEST(CompileCacheApi, LruEvictionDropsOldestEntry)
{
    CacheConfig config;
    config.capacity = 2;
    CompileCache cache(config);
    cache.insert(1, {0x01});
    cache.insert(2, {0x02});
    ASSERT_NE(cache.lookup(1), nullptr); // 1 now most recent
    cache.insert(3, {0x03});             // evicts 2
    EXPECT_EQ(cache.lookup(2), nullptr);
    EXPECT_NE(cache.lookup(1), nullptr);
    EXPECT_NE(cache.lookup(3), nullptr);
    EXPECT_EQ(cache.size(), 2u);
    const CacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 3u);
}

TEST(CompileCacheApi, HitSharesTheStoredBuffer)
{
    CompileCache cache;
    cache.insert(7, {0x01, 0x02, 0x03});
    const CachedArtifact first = cache.lookup(7);
    const CachedArtifact second = cache.lookup(7);
    ASSERT_NE(first, nullptr);
    // Both hits read the one stored buffer; neither copied it.
    EXPECT_EQ(first, second);
    EXPECT_EQ(first->data(), second->data());
    EXPECT_EQ(*first, (std::vector<std::uint8_t>{0x01, 0x02, 0x03}));
    EXPECT_EQ(cache.stats().hits, 2u);
}

TEST(CompileCacheApi, HeldHitOutlivesItsEviction)
{
    CacheConfig config;
    config.capacity = 1;
    CompileCache cache(config);
    cache.insert(1, std::vector<std::uint8_t>(4096, 0xab));
    const CachedArtifact held = cache.lookup(1);
    ASSERT_NE(held, nullptr);
    cache.insert(2, {0x02}); // evicts 1
    EXPECT_EQ(cache.lookup(1), nullptr);
    EXPECT_EQ(cache.stats().evictions, 1u);
    // The reader's reference keeps the evicted bytes alive and whole.
    ASSERT_EQ(held->size(), 4096u);
    for (std::uint8_t byte : *held)
        ASSERT_EQ(byte, 0xab);
    cache.clear();
    EXPECT_EQ(held.use_count(), 1);
    EXPECT_EQ(held->front(), 0xab);
}

TEST(CompileCacheApi, EvictedEntryForcesRecompile)
{
    CacheConfig config;
    config.capacity = 1;
    auto cache = std::make_shared<CompileCache>(config);
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(9).cache(cache));

    const auto a = CompileRequest::fromCircuit(makeQft(5));
    const auto b = CompileRequest::fromCircuit(makeQft(6));
    ASSERT_TRUE(driver.compile(a).ok()); // miss, cache = {a}
    ASSERT_TRUE(driver.compile(b).ok()); // miss, evicts a
    auto again = driver.compile(a);      // miss again
    ASSERT_TRUE(again.ok());
    EXPECT_FALSE(again->cacheHit);
    ASSERT_TRUE(again->cacheStats.has_value());
    EXPECT_EQ(again->cacheStats->hits, 0u);
    EXPECT_EQ(again->cacheStats->misses, 3u);
    EXPECT_GE(again->cacheStats->evictions, 1u);
}

TEST(CompileCacheApi, DiskTierSurvivesNewCacheInstance)
{
    const std::string dir = ::testing::TempDir() + "dcmbqc_cache_ut";
    std::filesystem::remove_all(dir); // stale entries from prior runs
    CacheConfig config;
    config.diskDir = dir;

    std::uint64_t cached_key = 0;
    {
        auto cache = std::make_shared<CompileCache>(config);
        const CompilerDriver driver(CompileOptions()
                                        .numQpus(2)
                                        .gridSize(7)
                                        .seed(21)
                                        .cache(cache));
        auto report = driver.compile(
            CompileRequest::fromCircuit(makeQft(6)));
        ASSERT_TRUE(report.ok());
        cached_key = report->cacheKey;
        EXPECT_EQ(cache->stats().diskWrites, 1u);
    }

    // Fresh instance, same directory: memory is cold, disk hits.
    auto cache = std::make_shared<CompileCache>(config);
    PassCounter counter;
    CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(21).cache(cache));
    driver.addObserver(&counter);
    auto report =
        driver.compile(CompileRequest::fromCircuit(makeQft(6)));
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->cacheHit);
    EXPECT_EQ(report->cacheKey, cached_key);
    EXPECT_EQ(counter.passes, 0);
    EXPECT_EQ(cache->stats().diskHits, 1u);

    // The disk entry is a regular artifact file.
    auto bytes = cache->lookup(cached_key);
    ASSERT_NE(bytes, nullptr);
    auto decoded = decodeCompileReportArtifact(*bytes);
    EXPECT_TRUE(decoded.ok()) << decoded.status().toString();

    std::remove(cache->diskPath(cached_key).c_str());
}

TEST(CompileCacheApi, CorruptDiskEntryFallsBackToRecompile)
{
    const std::string dir =
        ::testing::TempDir() + "dcmbqc_cache_corrupt";
    std::filesystem::remove_all(dir); // stale entries from prior runs
    CacheConfig config;
    config.diskDir = dir;
    auto cache = std::make_shared<CompileCache>(config);
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(2).cache(cache));
    const auto request = CompileRequest::fromCircuit(makeQft(5));
    auto first = driver.compile(request);
    ASSERT_TRUE(first.ok());

    // Corrupt the stored artifact, then drop the memory tier so the
    // next lookup reads the damaged file.
    const std::string path = cache->diskPath(first->cacheKey);
    std::FILE *file = std::fopen(path.c_str(), "r+b");
    ASSERT_NE(file, nullptr);
    std::fseek(file, 20, SEEK_SET);
    std::fputc(0xee, file);
    std::fclose(file);
    cache->clear();

    auto second = driver.compile(request);
    ASSERT_TRUE(second.ok());
    EXPECT_FALSE(second->cacheHit);
    expectSameDistributedResult(first->result(), second->result());

    std::remove(path.c_str());
}

TEST(CompileCacheApi, ConcurrentBatchWithDuplicatesIsDeterministic)
{
    std::vector<CompileRequest> requests;
    for (int copy = 0; copy < 4; ++copy)
        for (int qubits : {5, 6, 7})
            requests.push_back(
                CompileRequest::fromCircuit(makeQft(qubits)));

    const auto options =
        CompileOptions().numQpus(2).gridSize(7).seed(7);
    const auto reference =
        CompilerDriver(options).compileBatch(requests, 1);

    auto cache = std::make_shared<CompileCache>();
    const CompilerDriver cached(CompileOptions(options).cache(cache));
    const auto batched = cached.compileBatch(requests, 4);

    ASSERT_EQ(batched.size(), requests.size());
    int hits = 0;
    for (std::size_t i = 0; i < requests.size(); ++i) {
        ASSERT_TRUE(batched[i].ok()) << batched[i].status().toString();
        ASSERT_TRUE(reference[i].ok());
        expectSameDistributedResult(reference[i]->result(),
                                    batched[i]->result());
        hits += batched[i]->cacheHit ? 1 : 0;
    }
    // 12 requests over 3 unique programs: exactly the 9 duplicates
    // replay from cache, each skipping the pipeline.
    EXPECT_EQ(hits, 9);
    EXPECT_EQ(cache->stats().misses, 3u);
}

/** Deterministic ExecResult fields (wall-clock excluded). */
void
expectSameExecution(const ExecResult &a, const ExecResult &b)
{
    EXPECT_EQ(a.backend, b.backend);
    EXPECT_EQ(a.shots, b.shots);
    EXPECT_EQ(a.completedShots, b.completedShots);
    EXPECT_EQ(a.seed, b.seed);
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.probabilities, b.probabilities);
    EXPECT_EQ(a.lostShots, b.lostShots);
    EXPECT_DOUBLE_EQ(a.analyticSuccessProbability,
                     b.analyticSuccessProbability);
}

TEST(CompileCacheApi, RoundTripPipelineReproducesExecutionBitwise)
{
    // compile -> serialize -> decode -> execute must reproduce the
    // in-process execution exactly, and a warm-cache replay of the
    // compile step must not change that.
    auto cache = std::make_shared<CompileCache>();
    const CompilerDriver driver(CompileOptions()
                                    .numQpus(2)
                                    .gridSize(7)
                                    .seed(13)
                                    .cache(cache));
    const auto request = CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(4, 12, 41), "rt-pipeline");

    std::vector<ExecOptions> backends(3);
    backends[0].backend = "statevector";
    backends[1].backend = "stabilizer";
    backends[2].backend = "mc-loss";
    for (ExecOptions &exec : backends) {
        exec.shots = 40;
        exec.seed = 19;
        exec.lossModel.cyclePeriodNs = 25.0;
    }

    auto cold = driver.compileAndExecute(request, backends);
    ASSERT_TRUE(cold.ok()) << cold.status().toString();
    EXPECT_FALSE(cold->cacheHit);
    ASSERT_EQ(cold->executions.size(), 3u);

    // Serialize the full report, decode it, and re-execute against
    // the *decoded* schedule and the original pattern payload.
    const auto bytes = encodeCompileReportArtifact(*cold);
    auto decoded = decodeCompileReportArtifact(bytes);
    ASSERT_TRUE(decoded.ok()) << decoded.status().toString();
    const ExecProgram reloaded =
        ExecProgram::fromRequest(request).withSchedule(
            decoded->result());
    for (std::size_t i = 0; i < backends.size(); ++i) {
        auto rerun = driver.execute(reloaded, backends[i]);
        ASSERT_TRUE(rerun.ok()) << rerun.status().toString();
        expectSameExecution(cold->executions[i], *rerun);
    }

    // Warm path: the compile replays from cache, the executions are
    // fresh — and bit-identical, because everything is seeded.
    auto warm = driver.compileAndExecute(request, backends);
    ASSERT_TRUE(warm.ok()) << warm.status().toString();
    EXPECT_TRUE(warm->cacheHit);
    ASSERT_EQ(warm->executions.size(), 3u);
    for (std::size_t i = 0; i < backends.size(); ++i)
        expectSameExecution(cold->executions[i],
                            warm->executions[i]);
    // Cached artifacts never embed executions: they are recorded
    // after the cache insert.
    auto cached_bytes = cache->lookup(cold->cacheKey);
    ASSERT_NE(cached_bytes, nullptr);
    auto cached = decodeCompileReportArtifact(*cached_bytes);
    ASSERT_TRUE(cached.ok());
    EXPECT_TRUE(cached->executions.empty());
}

TEST(CompileCacheApi, BatchFailuresStayIsolatedWithCacheOn)
{
    auto cache = std::make_shared<CompileCache>();
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).cache(cache));
    std::vector<CompileRequest> requests;
    requests.push_back(CompileRequest::fromCircuit(makeQft(5)));
    requests.push_back(
        CompileRequest::fromCircuit(Circuit(2, "empty")));
    requests.push_back(CompileRequest::fromCircuit(makeQft(5)));

    const auto reports = driver.compileBatch(requests, 2);
    ASSERT_EQ(reports.size(), 3u);
    EXPECT_TRUE(reports[0].ok());
    ASSERT_FALSE(reports[1].ok());
    EXPECT_EQ(reports[1].status().code(),
              StatusCode::InvalidArgument);
    ASSERT_TRUE(reports[2].ok());
    EXPECT_TRUE(reports[2]->cacheHit);
}

// --- Sharded on-disk store ------------------------------------------------

TEST(CompileCacheApi, DiskStoreIsShardedAndScannable)
{
    const std::string dir =
        ::testing::TempDir() + "dcmbqc_cache_shard";
    std::filesystem::remove_all(dir); // stale entries from prior runs
    CacheConfig config;
    config.diskDir = dir;
    auto cache = std::make_shared<CompileCache>(config);
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(4).cache(cache));
    auto report =
        driver.compile(CompileRequest::fromCircuit(makeQft(5)));
    ASSERT_TRUE(report.ok());

    // The entry lands under a two-hex-digit shard directory.
    const std::string path = cache->diskPath(report->cacheKey);
    EXPECT_TRUE(std::filesystem::exists(path));
    const std::string shard =
        std::filesystem::path(path).parent_path().filename();
    EXPECT_EQ(shard.size(), 2u);
    EXPECT_NE(shard, std::filesystem::path(dir).filename());

    DiskStoreStats scan = CompileCache::scanDiskStore(dir);
    EXPECT_EQ(scan.entries, 1u);
    EXPECT_EQ(scan.shardDirs, 1u);
    EXPECT_EQ(scan.flatEntries, 0u);
    EXPECT_EQ(scan.unreadable, 0u);
    EXPECT_GT(scan.totalBytes, 0u);

    // A garbage .dcmbqc file is counted and flagged unreadable.
    const std::string garbage = dir + "/" + shard + "/junk.dcmbqc";
    std::FILE *file = std::fopen(garbage.c_str(), "wb");
    ASSERT_NE(file, nullptr);
    std::fputs("not an artifact", file);
    std::fclose(file);
    scan = CompileCache::scanDiskStore(dir);
    EXPECT_EQ(scan.entries, 2u);
    EXPECT_EQ(scan.unreadable, 1u);

    std::filesystem::remove_all(dir);
}

TEST(CompileCacheApi, LegacyFlatDiskEntryStillHits)
{
    const std::string dir =
        ::testing::TempDir() + "dcmbqc_cache_flat";
    std::filesystem::remove_all(dir); // stale entries from prior runs
    CacheConfig config;
    config.diskDir = dir;

    const auto request = CompileRequest::fromCircuit(makeQft(5));
    std::uint64_t key = 0;
    {
        auto cache = std::make_shared<CompileCache>(config);
        const CompilerDriver driver(CompileOptions()
                                        .numQpus(2)
                                        .gridSize(7)
                                        .seed(6)
                                        .cache(cache));
        auto report = driver.compile(request);
        ASSERT_TRUE(report.ok());
        key = report->cacheKey;
        // Demote the entry to the pre-shard flat layout.
        std::filesystem::rename(cache->diskPath(key),
                                cache->legacyDiskPath(key));
    }

    DiskStoreStats scan = CompileCache::scanDiskStore(dir);
    EXPECT_EQ(scan.entries, 1u);
    EXPECT_EQ(scan.flatEntries, 1u);

    // A fresh instance still hits it from the legacy path.
    auto cache = std::make_shared<CompileCache>(config);
    PassCounter counter;
    CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(6).cache(cache));
    driver.addObserver(&counter);
    auto report = driver.compile(request);
    ASSERT_TRUE(report.ok());
    EXPECT_TRUE(report->cacheHit);
    EXPECT_EQ(counter.passes, 0);
    EXPECT_EQ(cache->stats().diskHits, 1u);

    std::filesystem::remove_all(dir);
}

// --- Artifact contents ----------------------------------------------------

TEST(CompileCacheApi, HitRetainsLoweredPattern)
{
    auto cache = std::make_shared<CompileCache>();
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).cache(cache));
    const auto request =
        CompileRequest::fromCircuit(makeQft(6), "pattern");

    auto miss = driver.compile(request);
    ASSERT_TRUE(miss.ok());
    ASSERT_TRUE(miss->pattern.has_value());

    // The replayed artifact still carries the lowered pattern, so a
    // warm hit needs zero re-lowering before execution.
    auto hit = driver.compile(request);
    ASSERT_TRUE(hit.ok());
    EXPECT_TRUE(hit->cacheHit);
    ASSERT_TRUE(hit->pattern.has_value());
    EXPECT_EQ(hit->pattern->graph().numNodes(),
              miss->pattern->graph().numNodes());
}

TEST(CompileCacheApi, CompileAndExecuteHitMatchesMiss)
{
    auto cache = std::make_shared<CompileCache>();
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).cache(cache));
    const auto request =
        CompileRequest::fromCircuit(makeQft(4), "exec");
    ExecOptions exec;
    exec.backend = "statevector";
    exec.shots = 64;
    exec.seed = 9;

    auto miss = driver.compileAndExecute(request, exec);
    ASSERT_TRUE(miss.ok()) << miss.status().toString();
    EXPECT_FALSE(miss->cacheHit);
    ASSERT_EQ(miss->executions.size(), 1u);

    auto hit = driver.compileAndExecute(request, exec);
    ASSERT_TRUE(hit.ok()) << hit.status().toString();
    EXPECT_TRUE(hit->cacheHit);
    ASSERT_EQ(hit->executions.size(), 1u);
    // Same compiled program + same seed = bit-identical sampling,
    // whether the schedule came from the pipeline or the cache.
    EXPECT_EQ(miss->executions[0].counts, hit->executions[0].counts);
    expectSameDistributedResult(miss->result(), hit->result());
}

} // namespace
} // namespace dcmbqc

/**
 * @file
 * Content-addressed compile cache. Entries are keyed by the 64-bit
 * FNV-1a hash of the serialized (request payload, normalized config,
 * seeds) triple — see cache/cache_key.hh — and hold the serialized
 * compile-report artifact, so a hit replays a previous compilation
 * bit-identically without running any pass.
 *
 * Two tiers:
 *  - an in-memory LRU map bounded by `CacheConfig::capacity`;
 *  - an optional on-disk store (`CacheConfig::diskDir`): every entry
 *    is written as `<dir>/<2-hex-shard>/<16-hex-key>.dcmbqc` — 256
 *    shards keyed by the top byte of the content address, so a store
 *    holding millions of artifacts never concentrates them in one
 *    directory — and each file is a regular artifact that `dcmbqc
 *    inspect` can open directly. Memory misses fall through to disk
 *    and promote back into the LRU tier; lookups also accept the
 *    pre-shard flat layout (`<dir>/<16-hex-key>.dcmbqc`) so existing
 *    stores keep hitting.
 *
 * All operations are thread-safe; `CompilerDriver::compileBatch`
 * workers and every session of the `dcmbqcd` compile service share
 * one instance.
 */

#ifndef DCMBQC_CACHE_COMPILE_CACHE_HH
#define DCMBQC_CACHE_COMPILE_CACHE_HH

#include <cstdint>
#include <list>
#include <memory>
#include <mutex>
#include <string>
#include <unordered_map>
#include <vector>

namespace dcmbqc
{

/** Tuning knobs of a CompileCache. */
struct CacheConfig
{
    /** Max in-memory entries; 0 means unbounded. */
    std::size_t capacity = 128;

    /** On-disk store directory; empty disables the disk tier. */
    std::string diskDir;
};

/** Monotonic operation counters (snapshot via stats()). */
struct CacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    std::uint64_t evictions = 0;
    std::uint64_t diskHits = 0;
    std::uint64_t diskWrites = 0;
};

/**
 * Offline summary of an on-disk artifact store (sharded and legacy
 * flat files), produced by `CompileCache::scanDiskStore` — this is
 * what `dcmbqc stats --cache-dir` reports when no daemon holds the
 * store hot.
 */
struct DiskStoreStats
{
    /** Artifact files found (sharded + flat). */
    std::uint64_t entries = 0;

    /** Sum of their file sizes in bytes. */
    std::uint64_t totalBytes = 0;

    /** Entries whose envelope header failed to read/validate. */
    std::uint64_t unreadable = 0;

    /** Two-hex-digit shard directories present. */
    int shardDirs = 0;

    /** Entries still in the pre-shard flat layout. */
    std::uint64_t flatEntries = 0;
};

/**
 * An artifact held by the cache. Readers share it with the memory
 * tier, so a hit copies no payload, and an entry evicted while a
 * reader holds it lives until that reader lets it go.
 */
using CachedArtifact = std::shared_ptr<const std::vector<std::uint8_t>>;

/** Thread-safe LRU + disk store of serialized compile artifacts. */
class CompileCache
{
  public:
    explicit CompileCache(CacheConfig config = {});

    const CacheConfig &config() const { return config_; }

    /**
     * The artifact stored under `key` (null on a miss), bumping it to
     * most-recently-used. Falls through to the disk tier on a memory
     * miss. Counts one hit or one miss per call.
     */
    CachedArtifact lookup(std::uint64_t key);

    /**
     * Store artifact bytes under `key`, evicting the least recently
     * used entry when over capacity, and mirroring to the disk tier
     * when enabled. Re-inserting an existing key refreshes it.
     */
    void insert(std::uint64_t key, std::vector<std::uint8_t> bytes);

    /**
     * The caller could not use the entry the last lookup returned
     * (undecodable payload, verifier mismatch on a key collision):
     * drop it from both tiers and reclassify that hit as a miss so
     * the counters describe what actually happened.
     */
    void discard(std::uint64_t key);

    /** Counter snapshot. */
    CacheStats stats() const;

    /** Entries currently resident in the memory tier. */
    std::size_t size() const;

    /** Drop the memory tier (the disk store is left untouched). */
    void clear();

    /**
     * Sharded store path `<diskDir>/<2-hex>/<16-hex-key>.dcmbqc`;
     * empty when disk disabled.
     */
    std::string diskPath(std::uint64_t key) const;

    /**
     * Pre-shard flat path `<diskDir>/<16-hex-key>.dcmbqc`, accepted
     * on lookup for stores written before sharding; empty when disk
     * disabled.
     */
    std::string legacyDiskPath(std::uint64_t key) const;

    /**
     * Walk an on-disk store (no cache instance needed) and summarize
     * it. A missing directory yields zero entries, not an error.
     */
    static DiskStoreStats scanDiskStore(const std::string &dir);

  private:
    using Entry = std::pair<std::uint64_t, CachedArtifact>;

    void touch(std::list<Entry>::iterator it);
    void insertLocked(std::uint64_t key, CachedArtifact bytes);

    CacheConfig config_;
    mutable std::mutex mutex_;
    CacheStats stats_;

    /** Front = most recently used. */
    std::list<Entry> lru_;
    std::unordered_map<std::uint64_t, std::list<Entry>::iterator>
        index_;
};

} // namespace dcmbqc

#endif // DCMBQC_CACHE_COMPILE_CACHE_HH

#include "cache/compile_cache.hh"

#include <unistd.h>

#include <atomic>
#include <cctype>
#include <cstdio>
#include <filesystem>

#include "common/logging.hh"
#include "serialize/artifact.hh"

namespace dcmbqc
{

namespace
{

/** 16-hex-digit, zero-padded key name (stable across platforms). */
std::string
hexKey(std::uint64_t key)
{
    char buf[24];
    std::snprintf(buf, sizeof(buf), "%016llx",
                  static_cast<unsigned long long>(key));
    return buf;
}

} // namespace

CompileCache::CompileCache(CacheConfig config)
    : config_(std::move(config))
{
    if (!config_.diskDir.empty()) {
        std::error_code ec;
        std::filesystem::create_directories(config_.diskDir, ec);
        if (ec) {
            warn("compile cache: cannot create disk store ",
                 config_.diskDir, " (", ec.message(),
                 "); continuing memory-only");
            config_.diskDir.clear();
        }
    }
}

std::string
CompileCache::diskPath(std::uint64_t key) const
{
    if (config_.diskDir.empty())
        return {};
    const std::string hex = hexKey(key);
    // Shard by the top byte (the first two hex digits): FNV output
    // is uniform, so a million-entry store spreads ~4k files per
    // directory instead of one directory with a million.
    return config_.diskDir + "/" + hex.substr(0, 2) + "/" + hex +
        ".dcmbqc";
}

std::string
CompileCache::legacyDiskPath(std::uint64_t key) const
{
    if (config_.diskDir.empty())
        return {};
    return config_.diskDir + "/" + hexKey(key) + ".dcmbqc";
}

void
CompileCache::touch(std::list<Entry>::iterator it)
{
    lru_.splice(lru_.begin(), lru_, it);
}

CachedArtifact
CompileCache::lookup(std::uint64_t key)
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = index_.find(key);
        if (it != index_.end()) {
            touch(it->second);
            ++stats_.hits;
            return it->second->second;
        }
        if (config_.diskDir.empty()) {
            ++stats_.misses;
            return nullptr;
        }
    }

    // Disk tier. The file read and envelope validation run outside
    // the lock so slow storage never serializes batch workers. A
    // sharded-path miss falls back to the pre-shard flat layout so
    // stores written by older binaries keep hitting.
    std::string path = diskPath(key);
    auto bytes = loadArtifactFile(path);
    if (!bytes.ok()) {
        const std::string legacy = legacyDiskPath(key);
        auto flat = loadArtifactFile(legacy);
        if (flat.ok()) {
            path = legacy;
            bytes = std::move(flat);
        }
    }
    const bool valid = bytes.ok() && openArtifact(*bytes).ok();

    std::lock_guard<std::mutex> lock(mutex_);
    if (!valid) {
        // A readable-but-invalid entry is damage, not a hit:
        // self-heal by dropping the file and report a miss so the
        // caller recompiles and overwrites it.
        if (bytes.ok())
            std::remove(path.c_str());
        ++stats_.misses;
        return nullptr;
    }
    ++stats_.hits;
    ++stats_.diskHits;
    // Promote into the memory tier.
    auto artifact = std::make_shared<const std::vector<std::uint8_t>>(
        std::move(bytes.value()));
    insertLocked(key, artifact);
    return artifact;
}

void
CompileCache::insertLocked(std::uint64_t key, CachedArtifact bytes)
{
    auto it = index_.find(key);
    if (it != index_.end()) {
        it->second->second = std::move(bytes);
        touch(it->second);
        return;
    }
    lru_.emplace_front(key, std::move(bytes));
    index_[key] = lru_.begin();
    if (config_.capacity > 0 && lru_.size() > config_.capacity) {
        index_.erase(lru_.back().first);
        lru_.pop_back();
        ++stats_.evictions;
    }
}

void
CompileCache::insert(std::uint64_t key, std::vector<std::uint8_t> bytes)
{
    bool disk_written = false;
    if (!config_.diskDir.empty()) {
        // Write outside the lock; a temp file unique across threads
        // AND processes (pid + counter) plus an atomic rename keeps
        // concurrent writers of the same content-addressed key from
        // tearing each other's files.
        static std::atomic<unsigned> temp_counter{0};
        const std::string path = diskPath(key);
        // Shard directories are created lazily on first write (one
        // mkdir syscall when it already exists).
        std::error_code ec;
        std::filesystem::create_directories(
            std::filesystem::path(path).parent_path(), ec);
        const std::string temp = path + ".tmp" +
            std::to_string(static_cast<long>(::getpid())) + "." +
            std::to_string(temp_counter.fetch_add(1));
        if (saveArtifactFile(temp, bytes).ok() &&
            std::rename(temp.c_str(), path.c_str()) == 0)
            disk_written = true;
        else
            std::remove(temp.c_str());
    }

    auto artifact =
        std::make_shared<const std::vector<std::uint8_t>>(std::move(bytes));
    std::lock_guard<std::mutex> lock(mutex_);
    if (disk_written)
        ++stats_.diskWrites;
    insertLocked(key, std::move(artifact));
}

void
CompileCache::discard(std::uint64_t key)
{
    std::string path, legacy;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = index_.find(key);
        if (it != index_.end()) {
            lru_.erase(it->second);
            index_.erase(it);
        }
        if (stats_.hits > 0)
            --stats_.hits;
        ++stats_.misses;
        path = diskPath(key);
        legacy = legacyDiskPath(key);
    }
    if (!path.empty())
        std::remove(path.c_str());
    if (!legacy.empty())
        std::remove(legacy.c_str());
}

DiskStoreStats
CompileCache::scanDiskStore(const std::string &dir)
{
    DiskStoreStats stats;
    namespace fs = std::filesystem;
    std::error_code ec;
    if (dir.empty() || !fs::is_directory(dir, ec))
        return stats;

    const auto isShardName = [](const std::string &name) {
        return name.size() == 2 && std::isxdigit(name[0]) &&
            std::isxdigit(name[1]);
    };
    const auto scanFile = [&stats](const fs::path &path, bool flat) {
        if (path.extension() != ".dcmbqc")
            return;
        std::error_code size_ec;
        const auto bytes = fs::file_size(path, size_ec);
        if (size_ec)
            return;
        ++stats.entries;
        stats.totalBytes += bytes;
        if (flat)
            ++stats.flatEntries;
        // Header-only validation: 16-byte envelope prefix, checked
        // for magic/size so a damaged store is visible without
        // reading gigabytes of payloads.
        std::FILE *file = std::fopen(path.c_str(), "rb");
        std::uint8_t header[16];
        const bool read_ok = file &&
            std::fread(header, 1, sizeof(header), file) ==
                sizeof(header);
        if (file)
            std::fclose(file);
        if (!read_ok || header[0] != 'D' || header[1] != 'C' ||
            header[2] != 'M' || header[3] != 'B')
            ++stats.unreadable;
    };

    for (const auto &entry : fs::directory_iterator(dir, ec)) {
        if (entry.is_directory(ec)) {
            if (!isShardName(entry.path().filename().string()))
                continue;
            ++stats.shardDirs;
            std::error_code shard_ec;
            for (const auto &file :
                 fs::directory_iterator(entry.path(), shard_ec))
                if (file.is_regular_file(shard_ec))
                    scanFile(file.path(), /*flat=*/false);
        } else if (entry.is_regular_file(ec)) {
            scanFile(entry.path(), /*flat=*/true);
        }
    }
    return stats;
}

CacheStats
CompileCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return stats_;
}

std::size_t
CompileCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return lru_.size();
}

void
CompileCache::clear()
{
    std::lock_guard<std::mutex> lock(mutex_);
    lru_.clear();
    index_.clear();
}

} // namespace dcmbqc

/**
 * @file
 * Shared plumbing of the benchmark binary: run options, wall-clock
 * helpers, order statistics, the metric sink every workload reports
 * into, the output-check counter behind `attempted` / `failed`, and
 * the benchmark-owned artifact digest.
 */

#ifndef PERFBENCH_HARNESS_HH
#define PERFBENCH_HARNESS_HH

#include <chrono>
#include <cstdint>
#include <map>
#include <string>
#include <vector>

#include "api/api.hh"

namespace perfbench
{

/** Command-line settings of one benchmark run. */
struct RunOptions
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;

    /** Path of the `dcmbqcd` binary built beside this one. */
    std::string daemonPath;

    /** Scratch directory for sockets, disk caches and trace files. */
    std::string runDir;

    /** Worker threads used for every threaded layer (<= nproc). */
    int threads = 4;
};

using Clock = std::chrono::steady_clock;

inline double
millisSince(Clock::time_point start)
{
    return std::chrono::duration<double, std::milli>(Clock::now() - start)
        .count();
}

inline double
secondsSince(Clock::time_point start)
{
    return millisSince(start) / 1e3;
}

/** Linear-interpolated quantile q in [0,1]; 0 for an empty sample. */
double quantile(std::vector<double> values, double q);

inline double
median(std::vector<double> values)
{
    return quantile(std::move(values), 0.5);
}

/**
 * Counts output checks. Every check is one attempted operation; a
 * failed check (or a failed call) is one failed operation, reported
 * on stderr up to a small limit.
 */
class Checker
{
  public:
    /** Record one check; returns `ok` for chaining. */
    bool check(bool ok, const std::string &what);

    /** Record a call that returned a non-OK status. */
    void fail(const std::string &what) { check(false, what); }

    /** Record `n` checks that passed. */
    void passed(std::uint64_t n) { attempted_ += n; }

    std::uint64_t attempted() const { return attempted_; }
    std::uint64_t failed() const { return failed_; }

  private:
    std::uint64_t attempted_ = 0;
    std::uint64_t failed_ = 0;
};

/**
 * Named measurements of one run. `value` keeps every digit; the
 * human-readable listing carries unit and sample count, the JSON
 * line carries name -> value only (run.py attaches the units from
 * BENCHMARK.json).
 */
class MetricSink
{
  public:
    /** A metric of the benchmark contract (listing and JSON). */
    void set(const std::string &name, double value,
             const std::string &unit, std::size_t samples = 1);

    /** A derived figure shown in the listing only. */
    void info(const std::string &name, double value,
              const std::string &unit, std::size_t samples = 1);

    /** Print "name = value unit (n=...)" lines, then the JSON line. */
    void emit(const Checker &checker) const;

  private:
    struct Entry
    {
        double value = 0.0;
        std::string unit;
        std::size_t samples = 1;
        bool contract = true;
    };
    std::map<std::string, Entry> entries_;
};

/** FNV-1a over a byte buffer. */
std::uint64_t fnv1a(const std::vector<std::uint8_t> &bytes,
                    std::uint64_t seed = 1469598103934665603ull);

/**
 * Digest of a report's compiled content: its artifact encoding with
 * the run-dependent telemetry (stage timings, cache bookkeeping,
 * label) cleared, so equal compiles hash equal across passes, entry
 * paths and commits that keep artifact content unchanged.
 */
std::uint64_t contentDigest(dcmbqc::CompileReport report);

/**
 * Structural checks of one compiled report that do not trust the
 * compiler: one part per QPU, every node assigned, and the connector
 * count equal to the cut edges recomputed from the pattern's graph.
 */
void checkCompiled(Checker &checker, const dcmbqc::CompileReport &report,
                   const dcmbqc::Graph &graph, int qpus,
                   const std::string &name);

/** Peak resident set of a process (self when pid == 0), MiB. */
double peakRssMib(int pid = 0);

/** Restart the peak resident set of a process at its current size. */
void resetPeakRss(int pid = 0);

/** Hex rendering of a 64-bit digest. */
std::string hex64(std::uint64_t value);

} // namespace perfbench

#endif // PERFBENCH_HARNESS_HH

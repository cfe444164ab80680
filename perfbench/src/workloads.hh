/**
 * @file
 * The four benchmark workloads. Each builds its inputs from the run
 * seed, sets up (several times, reporting the median), measures
 * rounds over its corpus for the requested number of seconds, checks
 * every output against a reference that does not come from the code
 * under test, and reports into the metric sink.
 *
 * Every workload reports the same end-to-end metrics (setup_s,
 * round_s, peak_rss_mib, artifact_kib, makespan_cycles,
 * photon_lifetime_cycles); a traced run reports the per-layer
 * metrics its layers produce.
 */

#ifndef PERFBENCH_WORKLOADS_HH
#define PERFBENCH_WORKLOADS_HH

#include <map>
#include <string>
#include <vector>

#include "harness.hh"

namespace perfbench
{

void runCompilePaper(const RunOptions &options, Checker &checker,
                     MetricSink &sink);
void runCompileStream(const RunOptions &options, Checker &checker,
                      MetricSink &sink);
void runServeCache(const RunOptions &options, Checker &checker,
                   MetricSink &sink);
void runExecShots(const RunOptions &options, Checker &checker,
                  MetricSink &sink);

/**
 * Measured seconds of every round, one entry per item of the round
 * (a program, an execution, or the whole request batch), split by
 * whether the round was traced.
 */
struct RoundTimes
{
    std::vector<std::vector<double>> untraced;
    std::vector<std::vector<double>> traced;

    /** Peak resident MiB of each untraced round (all processes). */
    std::vector<double> peakMib;
};

/**
 * The round estimate: the sum over items of each item's median over
 * rounds. A burst of outside load that slows one item in one round
 * moves it less than the median of round totals.
 */
double sumOfMedians(const std::vector<std::vector<double>> &rounds);

/**
 * Call `round(index, traced)` — which returns the measured seconds of
 * each item of that round — until `options.seconds` have passed and
 * at least `min_rounds` ran. A traced run alternates untraced and
 * traced rounds, so both estimates come from the same stretch of
 * time. The peak resident set of `pids` (0 = this process) restarts
 * before every round, so each round's peak is its own, not one
 * inherited from set-up or from earlier rounds.
 */
template <typename Round>
RoundTimes
runRounds(const RunOptions &options, int min_rounds, Round &&round,
          const std::vector<int> &pids = {0})
{
    RoundTimes times;
    const auto start = Clock::now();
    for (int i = 0;; ++i) {
        const bool traced = options.trace && i % 2 == 1;
        for (int pid : pids)
            resetPeakRss(pid);
        std::vector<double> items = round(i, traced);
        (traced ? times.traced : times.untraced).push_back(std::move(items));
        if (!traced) {
            double mib = 0.0;
            for (int pid : pids)
                mib += peakRssMib(pid);
            times.peakMib.push_back(mib);
        }
        if (i + 1 >= min_rounds && secondsSince(start) >= options.seconds)
            break;
    }
    return times;
}

/**
 * Run `setup()` `reps` times (each replaces the previous set-up's
 * state); median seconds of one set-up.
 */
template <typename Setup>
double
medianSetup(int reps, Setup &&setup)
{
    std::vector<double> seconds;
    for (int i = 0; i < reps; ++i) {
        const auto start = Clock::now();
        setup();
        seconds.push_back(secondsSince(start));
    }
    return median(seconds);
}

/**
 * Report round_s (the untraced estimate), peak_rss_mib (median round
 * peak) and, for a traced run, the traced estimate and the tracing
 * overhead.
 */
void reportRounds(const RunOptions &options, MetricSink &sink,
                  const RoundTimes &times);

/**
 * Median over traced rounds of each span's per-round self time,
 * reported as "<span>.ms" (the serialize spans as "_ms").
 */
void reportSelfTimes(MetricSink &sink,
                     const std::vector<std::map<std::string, double>>
                         &per_round);

} // namespace perfbench

#endif // PERFBENCH_WORKLOADS_HH

/**
 * @file
 * The benchmark binary:
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             --daemon PATH --run-dir DIR
 *
 * Runs one workload (compile_paper, compile_stream, serve_cache,
 * exec_shots), prints every metric with its unit and sample count,
 * and ends with one JSON line {"attempted", "failed", "metrics"}
 * that run.py turns into the benchmark's result line.
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <string>
#include <thread>

#include "workloads.hh"

using namespace perfbench;

namespace perfbench
{

double
sumOfMedians(const std::vector<std::vector<double>> &rounds)
{
    double total = 0.0;
    for (std::size_t item = 0; !rounds.empty() && item < rounds[0].size();
         ++item) {
        std::vector<double> samples;
        for (const auto &round : rounds)
            if (item < round.size())
                samples.push_back(round[item]);
        total += median(samples);
    }
    return total;
}

void
reportRounds(const RunOptions &options, MetricSink &sink,
             const RoundTimes &times)
{
    const double untraced = sumOfMedians(times.untraced);
    sink.set("round_s", untraced, "s", times.untraced.size());
    sink.set("peak_rss_mib", median(times.peakMib), "MiB",
             times.peakMib.size());
    if (!options.trace)
        return;
    const double traced = sumOfMedians(times.traced);
    sink.set("trace.round_s_untraced", untraced, "s",
             times.untraced.size());
    sink.set("trace.round_s_traced", traced, "s", times.traced.size());
    sink.set("trace.overhead_pct",
             untraced > 0 ? 100.0 * (traced - untraced) / untraced : 0.0,
             "%", times.traced.size());
}

void
reportSelfTimes(MetricSink &sink,
                const std::vector<std::map<std::string, double>> &per_round)
{
    std::map<std::string, std::vector<double>> samples;
    for (const auto &round : per_round)
        for (const auto &[name, millis] : round)
            samples[name];
    for (const auto &round : per_round)
        for (auto &[name, values] : samples) {
            const auto it = round.find(name);
            values.push_back(it == round.end() ? 0.0 : it->second);
        }
    for (const auto &[name, values] : samples) {
        if (name.rfind("serialize.", 0) == 0)
            sink.set(name + "_ms", median(values), "ms", values.size());
        else if (name.rfind("pass.", 0) == 0 ||
                 name.rfind("exec.", 0) == 0)
            sink.set(name + ".ms", median(values), "ms", values.size());
    }
}

} // namespace perfbench

namespace
{

int
usage()
{
    std::fprintf(stderr,
                 "usage: perfbench --workload NAME --seed N --seconds S "
                 "--trace 0|1 --daemon PATH --run-dir DIR\n");
    return 2;
}

} // namespace

int
main(int argc, char **argv)
{
    RunOptions options;
    for (int i = 1; i + 1 < argc; i += 2) {
        const std::string flag = argv[i];
        const char *value = argv[i + 1];
        if (flag == "--workload")
            options.workload = value;
        else if (flag == "--seed")
            options.seed = std::strtoull(value, nullptr, 10);
        else if (flag == "--seconds")
            options.seconds = std::atof(value);
        else if (flag == "--trace")
            options.trace = std::strcmp(value, "0") != 0;
        else if (flag == "--daemon")
            options.daemonPath = value;
        else if (flag == "--run-dir")
            options.runDir = value;
        else
            return usage();
    }
    if (argc % 2 != 1 || options.runDir.empty() || options.seconds <= 0)
        return usage();
    const unsigned cores = std::thread::hardware_concurrency();
    options.threads = cores > 0 && cores < 4 ? static_cast<int>(cores) : 4;

    Checker checker;
    MetricSink sink;
    std::printf("workload %s, seed %llu, %.0f s, trace %d, %d threads\n",
                options.workload.c_str(),
                (unsigned long long)options.seed, options.seconds,
                options.trace ? 1 : 0, options.threads);
    if (options.workload == "compile_paper")
        runCompilePaper(options, checker, sink);
    else if (options.workload == "compile_stream")
        runCompileStream(options, checker, sink);
    else if (options.workload == "serve_cache")
        runServeCache(options, checker, sink);
    else if (options.workload == "exec_shots")
        runExecShots(options, checker, sink);
    else
        return usage();
    sink.emit(checker);
    return 0;
}

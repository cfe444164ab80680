#include "harness.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>

#include "serialize/codecs.hh"

namespace perfbench
{

using namespace dcmbqc;

double
quantile(std::vector<double> values, double q)
{
    if (values.empty())
        return 0.0;
    std::sort(values.begin(), values.end());
    const double pos = q * static_cast<double>(values.size() - 1);
    const std::size_t lo = static_cast<std::size_t>(std::floor(pos));
    const std::size_t hi = std::min(lo + 1, values.size() - 1);
    const double frac = pos - static_cast<double>(lo);
    return values[lo] + (values[hi] - values[lo]) * frac;
}

bool
Checker::check(bool ok, const std::string &what)
{
    ++attempted_;
    if (!ok) {
        ++failed_;
        if (failed_ <= 20)
            std::fprintf(stderr, "perfbench: check failed: %s\n",
                         what.c_str());
    }
    return ok;
}

void
MetricSink::set(const std::string &name, double value,
                const std::string &unit, std::size_t samples)
{
    entries_[name] = Entry{value, unit, samples, true};
}

void
MetricSink::info(const std::string &name, double value,
                 const std::string &unit, std::size_t samples)
{
    entries_[name] = Entry{value, unit, samples, false};
}

void
MetricSink::emit(const Checker &checker) const
{
    for (const auto &[name, entry] : entries_)
        std::printf("  %-34s %.6g %s (n=%zu)%s\n", name.c_str(),
                    entry.value, entry.unit.c_str(), entry.samples,
                    entry.contract ? "" : " [listing only]");
    const double error_rate = checker.attempted() > 0
        ? static_cast<double>(checker.failed()) / checker.attempted()
        : 1.0;
    std::printf("  %-34s %.6g (%llu failed of %llu attempted)\n",
                "error_rate", error_rate,
                (unsigned long long)checker.failed(),
                (unsigned long long)checker.attempted());

    std::string json = "{\"attempted\": " +
        std::to_string(checker.attempted()) +
        ", \"failed\": " + std::to_string(checker.failed()) +
        ", \"metrics\": {";
    bool first = true;
    for (const auto &[name, entry] : entries_) {
        if (!entry.contract)
            continue;
        char number[64];
        std::snprintf(number, sizeof(number), "%.17g", entry.value);
        json += (first ? "\"" : ", \"") + name + "\": " + number;
        first = false;
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

std::uint64_t
fnv1a(const std::vector<std::uint8_t> &bytes, std::uint64_t seed)
{
    std::uint64_t hash = seed;
    for (std::uint8_t byte : bytes) {
        hash ^= byte;
        hash *= 1099511628211ull;
    }
    return hash;
}

std::uint64_t
contentDigest(CompileReport report)
{
    report.label.clear();
    report.stages.clear();
    report.totalMillis = 0.0;
    report.cacheHit = false;
    report.cacheKey = 0;
    report.cacheVerifier = 0;
    report.cacheStats.reset();
    return fnv1a(encodeCompileReportArtifact(report));
}

void
checkCompiled(Checker &checker, const CompileReport &report,
              const Graph &graph, int qpus, const std::string &name)
{
    if (!checker.check(report.distributed.has_value(),
                       name + ": no distributed result"))
        return;
    const DcMbqcResult &result = *report.distributed;
    const Partitioning &part = result.partition;
    const std::vector<int> &assignment = part.assignment();
    bool covered = part.numParts() == qpus &&
        assignment.size() == static_cast<std::size_t>(graph.numNodes());
    std::vector<bool> used(static_cast<std::size_t>(qpus), false);
    for (std::size_t u = 0; covered && u < assignment.size(); ++u) {
        covered = assignment[u] >= 0 && assignment[u] < qpus;
        if (covered)
            used[static_cast<std::size_t>(assignment[u])] = true;
    }
    covered = covered && std::all_of(used.begin(), used.end(),
                                     [](bool b) { return b; });
    checker.check(covered, name + ": partition is not one part per "
                               "QPU covering every node");
    if (!covered)
        return;
    long long cut = 0;
    for (const Edge &edge : graph.edges())
        cut += assignment[edge.u] != assignment[edge.v];
    checker.check(cut == result.numConnectors,
                  name + ": numConnectors " +
                      std::to_string(result.numConnectors) +
                      " != recomputed cut edges " + std::to_string(cut));
}

double
peakRssMib(int pid)
{
    const std::string path = pid > 0
        ? "/proc/" + std::to_string(pid) + "/status"
        : std::string("/proc/self/status");
    std::ifstream in(path);
    std::string line;
    while (std::getline(in, line)) {
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    }
    return 0.0;
}

void
resetPeakRss(int pid)
{
    std::ofstream(pid > 0 ? "/proc/" + std::to_string(pid) + "/clear_refs"
                          : std::string("/proc/self/clear_refs"))
        << "5";
}

std::string
hex64(std::uint64_t value)
{
    char text[20];
    std::snprintf(text, sizeof(text), "%016llx",
                  static_cast<unsigned long long>(value));
    return text;
}

} // namespace perfbench

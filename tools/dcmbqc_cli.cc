/**
 * @file
 * `dcmbqc`: the out-of-process front end of the DC-MBQC compiler.
 *
 *   dcmbqc compile   compile a generated or serialized circuit and
 *                    write the compile-report artifact to a file
 *   dcmbqc run       compile a serialized circuit/pattern artifact
 *                    and execute it on the execution backends
 *   dcmbqc inspect   pretty-print any artifact file as JSON
 *   dcmbqc stats     one-screen summary of an artifact file, a
 *                    daemon's serving statistics (--daemon), or an
 *                    on-disk cache store (--cache-dir)
 *
 * `compile` and `run` accept `--daemon SOCK` to route the job to a
 * running `dcmbqcd` instead of compiling in-process, sharing its hot
 * cache with every other client; `--autostart` spawns the daemon on
 * demand when nothing serves the socket yet.
 *
 * Every failure travels through the Status channel and exits with a
 * non-zero code; nothing in this tool aborts.
 */

#include <unistd.h>

#include <algorithm>
#include <cerrno>
#include <climits>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <optional>
#include <string>
#include <vector>

#include "api/api.hh"
#include "cache/compile_cache.hh"
#include "circuit/generators.hh"
#include "circuit/huge_generators.hh"
#include "common/table.hh"
#include "noise/config_io.hh"
#include "photonic/grid.hh"
#include "photonic/resource_state.hh"
#include "serialize/codecs.hh"
#include "serialize/json.hh"
#include "service/client.hh"
#include "service/protocol.hh"

using namespace dcmbqc;

namespace
{

int
usage()
{
    std::fprintf(
        stderr,
        "usage:\n"
        "  dcmbqc compile (--family qft|qaoa|vqe|rca|clifford "
        "--qubits N | --in CIRCUIT.dcmbqc\n"
        "                  | --stream-family graphstate|deepqaoa"
        "|cliffordt\n"
        "                    [--rows R --cols C | --qubits N "
        "[--depth L | --gates G]])\n"
        "                 [--window N]\n"
        "                 [-o REPORT.dcmbqc] [--qpus N] [--grid L] "
        "[--kmax K]\n"
        "                 [--seed S] [--pl-ratio R] [--resource-state "
        "ring4|star5|ring6|star7]\n"
        "                 [--no-bdir] [--baseline] [--label NAME]\n"
        "                 [--noise NOISE.json|.dcmbqc] "
        "[--portfolio K]\n"
        "                 [--cache-dir DIR] [--save-circuit "
        "FILE.dcmbqc] [--quiet]\n"
        "                 [--daemon SOCK [--autostart] "
        "[--deadline-ms N] [--progress]]\n"
        "  dcmbqc run     ARTIFACT.dcmbqc (circuit or pattern)\n"
        "                 [--backend statevector|stabilizer|mc-loss"
        "|schedule|all]\n"
        "                 [--shots N] [--exec-seed S] [--threads N] "
        "[--raw]\n"
        "                 [--cycle-ns X] [--qpus N] [--grid L] "
        "[--kmax K]\n"
        "                 [--seed S] [--pl-ratio R] [--no-bdir] "
        "[--baseline]\n"
        "                 [--noise NOISE.json|.dcmbqc] "
        "[--cache-dir DIR]\n"
        "                 [--portfolio K] [-o REPORT.dcmbqc] "
        "[--quiet]\n"
        "                 [--daemon SOCK [--autostart] "
        "[--deadline-ms N] [--progress]]\n"
        "  dcmbqc inspect FILE.dcmbqc\n"
        "  dcmbqc stats   FILE.dcmbqc\n"
        "  dcmbqc stats   --daemon SOCK [--json]\n"
        "  dcmbqc stats   --cache-dir DIR\n");
    return 2;
}

int
fail(const Status &status)
{
    std::fprintf(stderr, "dcmbqc: %s\n", status.toString().c_str());
    return 1;
}

bool
parseInt(const char *text, int &out)
{
    char *end = nullptr;
    errno = 0;
    const long value = std::strtol(text, &end, 10);
    // Out-of-range values are an error, not a silent wrap: a
    // truncated --seed would quietly run a different experiment.
    if (end == text || *end != '\0' || errno == ERANGE ||
        value < INT_MIN || value > INT_MAX)
        return false;
    out = static_cast<int>(value);
    return true;
}

/** Full-range u64 parser for --seed (CompileOptions takes u64). */
bool
parseU64(const char *text, std::uint64_t &out)
{
    if (text[0] == '-' || text[0] == '\0')
        return false;
    char *end = nullptr;
    errno = 0;
    const unsigned long long value = std::strtoull(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE)
        return false;
    out = static_cast<std::uint64_t>(value);
    return true;
}

bool
parseResourceState(const std::string &name, ResourceStateType &out)
{
    if (name == "ring4") out = ResourceStateType::Ring4;
    else if (name == "star5") out = ResourceStateType::Star5;
    else if (name == "ring6") out = ResourceStateType::Ring6;
    else if (name == "star7") out = ResourceStateType::Star7;
    else return false;
    return true;
}

Expected<Circuit>
makeFamilyCircuit(const std::string &family, int qubits,
                  std::uint64_t seed)
{
    if (qubits < 1)
        return Status::invalidArgument(
            "--qubits must be >= 1 (got " + std::to_string(qubits) +
            ")");
    if (family == "qft")
        return makeQft(qubits);
    if (family == "qaoa")
        return makeQaoaMaxcut(qubits, seed == 0 ? 7 : seed);
    if (family == "vqe")
        return makeVqe(qubits);
    if (family == "rca") {
        if (qubits < 6)
            return Status::invalidArgument(
                "rca needs --qubits >= 6");
        return makeRippleCarryAdder(qubits);
    }
    // Random Clifford programs: executable on every backend,
    // including the stabilizer tableau (dcmbqc run --backend all).
    if (family == "clifford")
        return makeRandomCliffordCircuit(qubits, 5 * qubits,
                                         seed == 0 ? 7 : seed);
    return Status::invalidArgument(
        "unknown --family '" + family +
        "' (expected qft|qaoa|vqe|rca|clifford)");
}

// --- daemon mode -----------------------------------------------------------

/** Shared --daemon flag set of the compile and run subcommands. */
struct DaemonOptions
{
    std::string socket;
    bool autostart = false;
    int deadlineMillis = 0;
    bool progress = false;
};

/**
 * The daemon executable to autostart: the `dcmbqcd` binary next to
 * this `dcmbqc` binary when present (the build tree and installs put
 * them side by side), otherwise whatever PATH resolves.
 */
std::string
daemonExecutable()
{
    char buf[4096];
    const ssize_t n =
        ::readlink("/proc/self/exe", buf, sizeof(buf) - 1);
    if (n > 0) {
        buf[n] = '\0';
        std::string path(buf);
        const std::size_t slash = path.rfind('/');
        if (slash != std::string::npos) {
            path = path.substr(0, slash + 1) + "dcmbqcd";
            if (::access(path.c_str(), X_OK) == 0)
                return path;
        }
    }
    return "dcmbqcd";
}

Status
connectDaemon(ServiceClient &client, const DaemonOptions &daemon,
              const std::string &cache_dir)
{
    if (!daemon.autostart)
        return client.connect(daemon.socket);
    std::vector<std::string> argv = {daemonExecutable(), "--socket",
                                     daemon.socket, "--quiet"};
    if (!cache_dir.empty()) {
        argv.push_back("--cache-dir");
        argv.push_back(cache_dir);
    }
    return client.connectOrStart(daemon.socket, argv);
}

/**
 * One compile round trip against the daemon, with progress echo.
 * Compile-only jobs go through the probe-first path: a warm daemon
 * answers the 16-byte content-address probe with the raw artifact
 * instead of making the client re-ship the request IR.
 */
Expected<ClientCompileResult>
daemonCompile(ServiceClient &client, const ServiceJob &job,
              bool quiet)
{
    const auto echo = [&](const ProgressEvent &event) {
        if (quiet)
            return;
        if (event.window) {
            std::printf("  [daemon] %-14s window %u: %llu",
                        event.pass.c_str(), event.windowIndex,
                        (unsigned long long)event.windowSettled);
            if (event.windowTotal > 0)
                std::printf("/%llu",
                            (unsigned long long)event.windowTotal);
            std::printf(" settled, frontier %llu\n",
                        (unsigned long long)event.frontierLive);
            return;
        }
        if (!event.finished)
            return;
        std::printf("  [daemon] %-14s %8.2f ms  %s\n",
                    event.pass.c_str(), event.millis,
                    event.note.c_str());
    };
    return client.compileCached(
        job, job.streamProgress
                 ? std::function<void(const ProgressEvent &)>(echo)
                 : nullptr);
}

// --- compile ---------------------------------------------------------------

/** Render a portfolio race table (winner marked with '*'). */
void
printPortfolioTable(const PortfolioReport &race)
{
    std::printf("portfolio race: %d candidate(s), %.2f ms",
                race.requested, race.raceMillis);
    if (race.cancelledEarly > 0)
        std::printf(", %d cancelled early", race.cancelledEarly);
    std::printf("\n");
    for (const PortfolioCandidate &entry : race.candidates) {
        if (entry.status.ok())
            std::printf("  %c %-18s survival %.4f  makespan %5d  "
                        "connectors %4d  %7.2f ms%s\n",
                        entry.winner ? '*' : ' ',
                        entry.strategy.c_str(),
                        entry.successProbability, entry.makespan,
                        entry.connectors, entry.wallMillis,
                        entry.cacheHit ? "  (cache hit)" : "");
        else
            std::printf("  %c %-18s %s%s\n",
                        entry.winner ? '*' : ' ',
                        entry.strategy.c_str(),
                        entry.cancelled
                            ? "cancelled"
                            : entry.status.toString().c_str(),
                        entry.cancelled ? " (straggler)" : "");
    }
    if (!race.validationNote.empty())
        std::printf("  %s\n", race.validationNote.c_str());
}

int
runCompile(const std::vector<std::string> &args)
{
    std::string family, circuit_in, out_path, label, cache_dir;
    std::string save_circuit, noise_path, stream_family;
    int qubits = 0, qpus = 4, grid = 0, kmax = 4, pl_ratio = 0;
    int portfolio = 1, window = 0, rows = 0, cols = 0, depth = 0;
    // A given --grid or --pl-ratio is forwarded whatever its value,
    // so CompileOptions::validate rejects a bad one instead of the
    // default silently standing in for it.
    bool grid_given = false, pl_ratio_given = false;
    std::uint64_t stream_gates = 0;
    std::uint64_t seed = 1;
    ResourceStateType state = ResourceStateType::Star5;
    bool use_bdir = true, baseline = false, quiet = false;
    DaemonOptions daemon;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "dcmbqc: %s needs a value\n",
                             flag);
                return nullptr;
            }
            return args[++i].c_str();
        };
        if (arg == "--family") {
            const char *v = next("--family");
            if (!v) return 2;
            family = v;
        } else if (arg == "--in") {
            const char *v = next("--in");
            if (!v) return 2;
            circuit_in = v;
        } else if (arg == "--stream-family") {
            const char *v = next("--stream-family");
            if (!v) return 2;
            stream_family = v;
        } else if (arg == "--gates") {
            const char *v = next("--gates");
            if (!v) return 2;
            if (!parseU64(v, stream_gates)) {
                std::fprintf(stderr,
                             "dcmbqc: --gates expects an unsigned "
                             "64-bit integer, got '%s'\n",
                             v);
                return 2;
            }
        } else if (arg == "-o" || arg == "--out") {
            const char *v = next("-o");
            if (!v) return 2;
            out_path = v;
        } else if (arg == "--label") {
            const char *v = next("--label");
            if (!v) return 2;
            label = v;
        } else if (arg == "--cache-dir") {
            const char *v = next("--cache-dir");
            if (!v) return 2;
            cache_dir = v;
        } else if (arg == "--save-circuit") {
            const char *v = next("--save-circuit");
            if (!v) return 2;
            save_circuit = v;
        } else if (arg == "--noise") {
            const char *v = next("--noise");
            if (!v) return 2;
            noise_path = v;
        } else if (arg == "--resource-state") {
            const char *v = next("--resource-state");
            if (!v) return 2;
            if (!parseResourceState(v, state)) {
                std::fprintf(stderr,
                             "dcmbqc: unknown resource state '%s'\n",
                             v);
                return 2;
            }
        } else if (arg == "--seed") {
            const char *v = next("--seed");
            if (!v) return 2;
            if (!parseU64(v, seed)) {
                std::fprintf(stderr,
                             "dcmbqc: --seed expects an unsigned "
                             "64-bit integer, got '%s'\n",
                             v);
                return 2;
            }
        } else if (arg == "--no-bdir") {
            use_bdir = false;
        } else if (arg == "--baseline") {
            baseline = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--daemon") {
            const char *v = next("--daemon");
            if (!v) return 2;
            daemon.socket = v;
        } else if (arg == "--autostart") {
            daemon.autostart = true;
        } else if (arg == "--progress") {
            daemon.progress = true;
        } else {
            int *slot = nullptr;
            if (arg == "--qubits") slot = &qubits;
            else if (arg == "--qpus") slot = &qpus;
            else if (arg == "--grid") slot = &grid;
            else if (arg == "--kmax") slot = &kmax;
            else if (arg == "--pl-ratio") slot = &pl_ratio;
            else if (arg == "--portfolio") slot = &portfolio;
            else if (arg == "--window") slot = &window;
            else if (arg == "--rows") slot = &rows;
            else if (arg == "--cols") slot = &cols;
            else if (arg == "--depth") slot = &depth;
            else if (arg == "--deadline-ms")
                slot = &daemon.deadlineMillis;
            if (!slot) {
                std::fprintf(stderr,
                             "dcmbqc: unknown option '%s'\n",
                             arg.c_str());
                return usage();
            }
            const char *v = next(arg.c_str());
            if (!v) return 2;
            if (!parseInt(v, *slot)) {
                std::fprintf(stderr,
                             "dcmbqc: %s expects an integer, got "
                             "'%s'\n",
                             arg.c_str(), v);
                return 2;
            }
            grid_given |= slot == &grid;
            pl_ratio_given |= slot == &pl_ratio;
        }
    }

    const int sources = (family.empty() ? 0 : 1) +
        (circuit_in.empty() ? 0 : 1) + (stream_family.empty() ? 0 : 1);
    if (sources != 1) {
        std::fprintf(stderr,
                     "dcmbqc: compile needs exactly one of --family, "
                     "--in, or --stream-family\n");
        return usage();
    }

    // Obtain the input: generator family (materialized), serialized
    // artifact, or one of the O(1)-state huge-circuit streams.
    std::optional<Circuit> circuit;
    std::shared_ptr<CircuitStream> stream;
    if (!stream_family.empty()) {
        if (stream_family == "graphstate") {
            if (rows < 1 || cols < 1)
                return fail(Status::invalidArgument(
                    "--stream-family graphstate needs --rows and "
                    "--cols (lattice shape)"));
            stream = makeGraphStateStream(rows, cols);
        } else if (stream_family == "deepqaoa") {
            if (qubits < 3 || depth < 1)
                return fail(Status::invalidArgument(
                    "--stream-family deepqaoa needs --qubits >= 3 "
                    "and --depth (QAOA layers)"));
            stream = makeDeepQaoaStream(qubits, depth, seed);
        } else if (stream_family == "cliffordt") {
            if (qubits < 1 || stream_gates == 0)
                return fail(Status::invalidArgument(
                    "--stream-family cliffordt needs --qubits and "
                    "--gates (total gate count)"));
            stream = makeRandomCliffordTStream(qubits, stream_gates,
                                               seed);
        } else {
            return fail(Status::invalidArgument(
                "unknown stream family '" + stream_family +
                "' (expected graphstate, deepqaoa, or cliffordt)"));
        }
    } else if (!family.empty()) {
        auto made = makeFamilyCircuit(
            family, qubits, seed);
        if (!made.ok())
            return fail(made.status());
        circuit = std::move(made.value());
    } else {
        auto bytes = loadArtifactFile(circuit_in);
        if (!bytes.ok())
            return fail(bytes.status());
        auto decoded = decodeCircuitArtifact(*bytes);
        if (!decoded.ok())
            return fail(decoded.status());
        circuit = std::move(decoded.value());
    }

    if (!save_circuit.empty()) {
        const Status saved = saveArtifactFile(
            save_circuit,
            encodeCircuitArtifact(stream ? stream->materialize()
                                         : *circuit));
        if (!saved.ok())
            return fail(saved);
        if (!quiet)
            std::printf("wrote circuit artifact %s\n",
                        save_circuit.c_str());
    }

    std::optional<NoiseConfig> noise;
    if (!noise_path.empty()) {
        auto loaded = loadNoiseConfigFile(noise_path);
        if (!loaded.ok())
            return fail(loaded.status());
        noise = std::move(loaded.value());
    }

    const int input_qubits =
        stream ? stream->numQubits() : circuit->numQubits();
    CompileOptions options;
    options.numQpus(baseline ? 1 : qpus)
        .kmax(kmax)
        .gridSize(grid_given ? grid : gridSizeForQubits(input_qubits))
        .resourceState(state)
        .useBdir(use_bdir)
        .seed(seed)
        .portfolio(portfolio);
    if (pl_ratio_given)
        options.plRatio(pl_ratio);
    if (baseline && portfolio > 1)
        return fail(Status::invalidArgument(
            "--portfolio needs the distributed pipeline; drop "
            "--baseline"));
    // Set even when negative: the value is vetted by
    // CompileOptions::validate, so a bad --window comes back as one
    // InvalidConfig status instead of a CLI special case.
    if (window != 0)
        options.window(window);
    if (noise)
        options.noise(*noise);
    std::shared_ptr<CompileCache> cache;
    if (!cache_dir.empty() && daemon.socket.empty()) {
        CacheConfig cache_config;
        cache_config.diskDir = cache_dir;
        cache = std::make_shared<CompileCache>(cache_config);
        options.cache(cache);
    }

    // Daemon mode: ship the job to dcmbqcd and let it compile
    // against its shared hot cache. --cache-dir is not opened here;
    // it configures the store of an --autostart'ed daemon.
    if (!daemon.socket.empty()) {
        auto config = options.build();
        if (!config.ok())
            return fail(config.status());
        ServiceJob job;
        job.request = stream
            ? CompileRequest::fromCircuitStream(
                  stream, label.empty() ? stream->name() : label)
            : CompileRequest::fromCircuit(
                  *circuit, label.empty() ? circuit->name() : label);
        job.config = *config;
        job.baseline = baseline;
        job.deadlineMillis = daemon.deadlineMillis > 0
            ? static_cast<std::uint32_t>(daemon.deadlineMillis)
            : 0;
        job.streamProgress = daemon.progress;
        job.noise = noise;
        job.portfolio = portfolio > 1
            ? static_cast<std::uint32_t>(portfolio)
            : 0;
        job.window = window > 0 ? static_cast<std::uint32_t>(window)
                                : 0;

        ServiceClient client;
        const Status connected =
            connectDaemon(client, daemon, cache_dir);
        if (!connected.ok())
            return fail(connected);
        auto served = daemonCompile(client, job, quiet);
        if (!served.ok())
            return fail(served.status());
        const CompileReport &report = served->report;
        if (!quiet && report.portfolio)
            printPortfolioTable(*report.portfolio);
        if (!quiet) {
            std::printf("compiled %s via %s: %s\n",
                        report.label.c_str(),
                        daemon.socket.c_str(),
                        served->hotServed
                            ? "hot cache hit (served raw)"
                            : served->cacheHit
                                  ? "cache hit (no pass ran)"
                                  : "full pipeline");
            std::printf("%s", report.describeStages().c_str());
            const int exec = baseline
                ? report.baselineResult().executionTime()
                : report.result().executionTime();
            const int tau = baseline
                ? report.baselineResult().requiredLifetime()
                : report.result().requiredLifetime();
            std::printf("  execution time    %8d cycles\n", exec);
            std::printf("  required lifetime %8d cycles\n", tau);
        }
        if (!out_path.empty()) {
            const Status saved = saveArtifactFile(
                out_path, encodeCompileReportArtifact(report));
            if (!saved.ok())
                return fail(saved);
            if (!quiet)
                std::printf("wrote report artifact %s\n",
                            out_path.c_str());
        }
        return 0;
    }

    const CompilerDriver driver(options);
    const auto request = stream
        ? CompileRequest::fromCircuitStream(
              stream, label.empty() ? stream->name() : label)
        : CompileRequest::fromCircuit(
              *circuit, label.empty() ? circuit->name() : label);
    auto report = baseline ? driver.compileBaseline(request)
                           : driver.compile(request);
    if (!report.ok())
        return fail(report.status());

    if (!quiet && report->portfolio)
        printPortfolioTable(*report->portfolio);
    if (!quiet) {
        std::printf("compiled %s: %s\n", report->label.c_str(),
                    report->cacheHit ? "cache hit (no pass ran)"
                                     : "full pipeline");
        std::printf("%s", report->describeStages().c_str());
        const int exec = baseline
            ? report->baselineResult().executionTime()
            : report->result().executionTime();
        const int tau = baseline
            ? report->baselineResult().requiredLifetime()
            : report->result().requiredLifetime();
        std::printf("  execution time    %8d cycles\n", exec);
        std::printf("  required lifetime %8d cycles\n", tau);
        if (report->streaming.windows > 0)
            std::printf("  streaming         %llu windows, peak "
                        "%llu frontier nodes / %llu pending edges\n",
                        (unsigned long long)report->streaming.windows,
                        (unsigned long long)
                            report->streaming.frontierNodePeak,
                        (unsigned long long)
                            report->streaming.pendingEdgePeak);
        if (report->peakRssBytes > 0)
            std::printf("  peak RSS          %8.1f MiB\n",
                        static_cast<double>(report->peakRssBytes) /
                            (1024.0 * 1024.0));
        if (report->cacheStats) {
            const CacheStats &s = *report->cacheStats;
            std::printf("  cache             %llu hits / %llu misses "
                        "/ %llu evictions\n",
                        (unsigned long long)s.hits,
                        (unsigned long long)s.misses,
                        (unsigned long long)s.evictions);
        }
        for (const std::string &warning : report->warnings)
            std::printf("  warning: %s\n", warning.c_str());
    }

    if (!out_path.empty()) {
        const Status saved = saveArtifactFile(
            out_path, encodeCompileReportArtifact(*report));
        if (!saved.ok())
            return fail(saved);
        if (!quiet)
            std::printf("wrote report artifact %s\n",
                        out_path.c_str());
    }
    return 0;
}

// --- run -------------------------------------------------------------------

/** Signed 64-bit parser for --exec-seed (negatives reach validate()). */
bool
parseI64(const char *text, std::int64_t &out)
{
    char *end = nullptr;
    errno = 0;
    const long long value = std::strtoll(text, &end, 10);
    if (end == text || *end != '\0' || errno == ERANGE)
        return false;
    out = static_cast<std::int64_t>(value);
    return true;
}

bool
parseDouble(const char *text, double &out)
{
    char *end = nullptr;
    errno = 0;
    const double value = std::strtod(text, &end);
    if (end == text || *end != '\0' || errno == ERANGE)
        return false;
    out = value;
    return true;
}

void
printExecSummary(const ExecResult &result)
{
    std::printf("backend %-11s %d/%d shots, %d thread(s), %.2f ms\n",
                result.backend.c_str(), result.completedShots,
                result.shots, result.threads, result.wallMillis);
    if (result.analyticSuccessProbability >= 0.0) {
        std::printf("  survival rate     %.4f (analytic %.4f)\n",
                    result.survivalRate(),
                    result.analyticSuccessProbability);
        std::printf("  photon storage    max %d cycles, mean %.1f "
                    "cycles\n",
                    result.maxStorageCycles,
                    result.meanStorageCycles);
        return;
    }
    // Top outcomes by frequency (ties broken by bitstring).
    std::vector<std::pair<std::string, std::int64_t>> top(
        result.counts.begin(), result.counts.end());
    std::sort(top.begin(), top.end(),
              [](const auto &a, const auto &b) {
                  return a.second != b.second ? a.second > b.second
                                              : a.first < b.first;
              });
    const std::size_t shown = std::min<std::size_t>(top.size(), 8);
    for (std::size_t i = 0; i < shown; ++i) {
        const auto prob = result.probabilities.find(top[i].first);
        if (prob != result.probabilities.end())
            std::printf("  %-20s %6lld  (exact p %.4f)\n",
                        top[i].first.c_str(),
                        (long long)top[i].second, prob->second);
        else
            std::printf("  %-20s %6lld\n", top[i].first.c_str(),
                        (long long)top[i].second);
    }
    if (top.size() > shown)
        std::printf("  ... %zu more outcome(s)\n", top.size() - shown);
    for (const std::string &note : result.notes)
        std::printf("  note: %s\n", note.c_str());
}

int
runRun(const std::vector<std::string> &args)
{
    std::string artifact_path, backend = "all", out_path, cache_dir;
    std::string noise_path;
    int shots = 256, threads = 0;
    int qpus = 4, grid = 0, kmax = 4, pl_ratio = 0;
    int portfolio = 1;
    // Forwarded whenever given, as in runCompile.
    bool grid_given = false, pl_ratio_given = false;
    std::uint64_t seed = 1;
    std::int64_t exec_seed = -1;
    bool exec_seed_set = false;
    double cycle_ns = 1.0;
    bool use_bdir = true, raw = false, quiet = false;
    bool baseline = false;
    DaemonOptions daemon;

    for (std::size_t i = 0; i < args.size(); ++i) {
        const std::string &arg = args[i];
        const auto next = [&](const char *flag) -> const char * {
            if (i + 1 >= args.size()) {
                std::fprintf(stderr, "dcmbqc: %s needs a value\n",
                             flag);
                return nullptr;
            }
            return args[++i].c_str();
        };
        if (arg == "--backend") {
            const char *v = next("--backend");
            if (!v) return 2;
            backend = v;
        } else if (arg == "-o" || arg == "--out") {
            const char *v = next("-o");
            if (!v) return 2;
            out_path = v;
        } else if (arg == "--cache-dir") {
            const char *v = next("--cache-dir");
            if (!v) return 2;
            cache_dir = v;
        } else if (arg == "--seed") {
            const char *v = next("--seed");
            if (!v) return 2;
            if (!parseU64(v, seed)) {
                std::fprintf(stderr,
                             "dcmbqc: --seed expects an unsigned "
                             "64-bit integer, got '%s'\n",
                             v);
                return 2;
            }
        } else if (arg == "--exec-seed") {
            const char *v = next("--exec-seed");
            if (!v) return 2;
            if (!parseI64(v, exec_seed)) {
                std::fprintf(stderr,
                             "dcmbqc: --exec-seed expects a 64-bit "
                             "integer, got '%s'\n",
                             v);
                return 2;
            }
            exec_seed_set = true;
        } else if (arg == "--cycle-ns") {
            const char *v = next("--cycle-ns");
            if (!v) return 2;
            if (!parseDouble(v, cycle_ns)) {
                std::fprintf(stderr,
                             "dcmbqc: --cycle-ns expects a number, "
                             "got '%s'\n",
                             v);
                return 2;
            }
        } else if (arg == "--noise") {
            const char *v = next("--noise");
            if (!v) return 2;
            noise_path = v;
        } else if (arg == "--no-bdir") {
            use_bdir = false;
        } else if (arg == "--baseline") {
            baseline = true;
        } else if (arg == "--raw") {
            raw = true;
        } else if (arg == "--quiet") {
            quiet = true;
        } else if (arg == "--daemon") {
            const char *v = next("--daemon");
            if (!v) return 2;
            daemon.socket = v;
        } else if (arg == "--autostart") {
            daemon.autostart = true;
        } else if (arg == "--progress") {
            daemon.progress = true;
        } else if (arg.size() >= 2 && arg[0] == '-' && arg[1] == '-') {
            int *slot = nullptr;
            if (arg == "--shots") slot = &shots;
            else if (arg == "--threads") slot = &threads;
            else if (arg == "--qpus") slot = &qpus;
            else if (arg == "--grid") slot = &grid;
            else if (arg == "--kmax") slot = &kmax;
            else if (arg == "--pl-ratio") slot = &pl_ratio;
            else if (arg == "--portfolio") slot = &portfolio;
            else if (arg == "--deadline-ms")
                slot = &daemon.deadlineMillis;
            if (!slot) {
                std::fprintf(stderr, "dcmbqc: unknown option '%s'\n",
                             arg.c_str());
                return usage();
            }
            const char *v = next(arg.c_str());
            if (!v) return 2;
            if (!parseInt(v, *slot)) {
                std::fprintf(stderr,
                             "dcmbqc: %s expects an integer, got "
                             "'%s'\n",
                             arg.c_str(), v);
                return 2;
            }
            grid_given |= slot == &grid;
            pl_ratio_given |= slot == &pl_ratio;
        } else if (artifact_path.empty()) {
            artifact_path = arg;
        } else {
            std::fprintf(stderr,
                         "dcmbqc: run takes one artifact, got '%s' "
                         "and '%s'\n",
                         artifact_path.c_str(), arg.c_str());
            return usage();
        }
    }
    if (artifact_path.empty()) {
        std::fprintf(stderr, "dcmbqc: run needs an artifact file\n");
        return usage();
    }

    // Accept the two artifact kinds that carry program semantics.
    auto bytes = loadArtifactFile(artifact_path);
    if (!bytes.ok())
        return fail(bytes.status());
    auto view = openArtifact(*bytes);
    if (!view.ok())
        return fail(view.status());

    std::optional<CompileRequest> request;
    int default_grid_qubits = 0;
    if (view->kind == ArtifactKind::Circuit) {
        auto circuit = decodeCircuitArtifact(*bytes);
        if (!circuit.ok())
            return fail(circuit.status());
        default_grid_qubits = circuit->numQubits();
        request = CompileRequest::fromCircuit(std::move(*circuit));
    } else if (view->kind == ArtifactKind::Pattern) {
        auto pattern = decodePatternArtifact(*bytes);
        if (!pattern.ok())
            return fail(pattern.status());
        default_grid_qubits = pattern->numWires();
        request = CompileRequest::fromPattern(std::move(*pattern));
    } else {
        return fail(Status::invalidArgument(
            std::string("run executes circuit or pattern artifacts; "
                        "'") +
            artifactKindName(view->kind) +
            "' carries no program semantics"));
    }
    request->withLabel(artifact_path);

    std::optional<NoiseConfig> noise;
    if (!noise_path.empty()) {
        auto loaded = loadNoiseConfigFile(noise_path);
        if (!loaded.ok())
            return fail(loaded.status());
        noise = std::move(loaded.value());
    }

    CompileOptions options;
    options.numQpus(baseline ? 1 : qpus)
        .kmax(kmax)
        .gridSize(grid_given ? grid
                             : gridSizeForQubits(default_grid_qubits))
        .useBdir(use_bdir)
        .seed(seed)
        .portfolio(portfolio);
    if (pl_ratio_given)
        options.plRatio(pl_ratio);
    if (baseline && portfolio > 1)
        return fail(Status::invalidArgument(
            "--portfolio needs the distributed pipeline; drop "
            "--baseline"));
    if (noise)
        options.noise(*noise);
    std::shared_ptr<CompileCache> cache;
    if (!cache_dir.empty() && daemon.socket.empty()) {
        CacheConfig cache_config;
        cache_config.diskDir = cache_dir;
        cache = std::make_shared<CompileCache>(cache_config);
        options.cache(cache);
    }

    // Daemon mode: one compile+execute job per selected backend, so
    // the "--backend all" skip semantics survive (a backend that
    // cannot run this program fails its own job with
    // FailedPrecondition; the others still run). Only the first job
    // pays the pipeline — the rest hit the daemon's shared cache.
    if (!daemon.socket.empty()) {
        // The daemon's baseline jobs are compile-only by protocol
        // contract; a baseline execution must run in-process.
        if (baseline)
            return fail(Status::invalidArgument(
                "run --baseline executes in-process; drop --daemon"));
        auto config = options.build();
        if (!config.ok())
            return fail(config.status());

        ServiceClient client;
        const Status connected =
            connectDaemon(client, daemon, cache_dir);
        if (!connected.ok())
            return fail(connected);

        const bool run_all = backend == "all";
        const std::vector<std::string> selected = run_all
            ? backendNames()
            : std::vector<std::string>{backend};

        ExecOptions exec;
        exec.shots = shots;
        exec.numThreads = threads;
        exec.applyByproducts = !raw;
        exec.lossModel.cyclePeriodNs = cycle_ns;
        exec.seed = exec_seed_set
            ? exec_seed
            : static_cast<std::int64_t>(
                  seed & 0x7fffffffffffffffull);

        std::optional<CompileReport> merged;
        int executed = 0;
        for (const std::string &name : selected) {
            exec.backend = name;
            ServiceJob job;
            job.request = *request;
            job.config = *config;
            job.deadlineMillis = daemon.deadlineMillis > 0
                ? static_cast<std::uint32_t>(daemon.deadlineMillis)
                : 0;
            job.streamProgress = daemon.progress && !merged;
            job.backends = {exec};
            job.noise = noise;
            job.portfolio = portfolio > 1
                ? static_cast<std::uint32_t>(portfolio)
                : 0;
            auto served = daemonCompile(client, job, quiet);
            if (!served.ok()) {
                if (run_all &&
                    served.status().code() ==
                        StatusCode::FailedPrecondition) {
                    if (!quiet)
                        std::printf(
                            "backend %-11s skipped: %s\n",
                            name.c_str(),
                            served.status().message().c_str());
                    continue;
                }
                return fail(served.status());
            }
            const std::size_t fresh = served->report.executions.size();
            if (!merged) {
                merged = std::move(served->report);
                if (!quiet && merged->portfolio)
                    printPortfolioTable(*merged->portfolio);
                if (!quiet)
                    std::printf(
                        "compiled %s via %s: %s, execution time %d "
                        "cycles, required lifetime %d cycles\n",
                        merged->label.c_str(), daemon.socket.c_str(),
                        served->cacheHit ? "cache hit"
                                         : "full pipeline",
                        merged->result().executionTime(),
                        merged->result().requiredLifetime());
            } else {
                for (ExecResult &result : served->report.executions)
                    merged->addExecution(std::move(result));
            }
            if (!quiet)
                for (std::size_t e =
                         merged->executions.size() - fresh;
                     e < merged->executions.size(); ++e)
                    printExecSummary(merged->executions[e]);
            ++executed;
        }
        if (executed == 0)
            return fail(Status::failedPrecondition(
                "no requested backend could execute this program"));
        if (!out_path.empty()) {
            const Status saved = saveArtifactFile(
                out_path, encodeCompileReportArtifact(*merged));
            if (!saved.ok())
                return fail(saved);
            if (!quiet)
                std::printf(
                    "wrote report artifact %s (%d execution(s))\n",
                    out_path.c_str(), executed);
        }
        return 0;
    }

    const CompilerDriver driver(options);
    auto compiled = baseline ? driver.compileBaseline(*request)
                             : driver.compile(*request);
    if (!compiled.ok())
        return fail(compiled.status());
    CompileReport report = std::move(compiled.value());
    if (!quiet && report.portfolio)
        printPortfolioTable(*report.portfolio);
    if (!quiet)
        std::printf("compiled %s (%s): %s, execution time %d cycles, "
                    "required lifetime %d cycles\n",
                    report.label.c_str(),
                    baseline ? "baseline" : "distributed",
                    report.cacheHit ? "cache hit" : "full pipeline",
                    baseline
                        ? report.baselineResult().executionTime()
                        : report.result().executionTime(),
                    baseline
                        ? report.baselineResult().requiredLifetime()
                        : report.result().requiredLifetime());

    const ExecProgram program = baseline
        ? ExecProgram::fromRequest(*request).withBaseline(
              report.baselineResult())
        : ExecProgram::fromRequest(*request).withSchedule(
              report.result());

    const bool run_all = backend == "all";
    const std::vector<std::string> selected =
        run_all ? backendNames() : std::vector<std::string>{backend};

    ExecOptions exec;
    exec.shots = shots;
    exec.numThreads = threads;
    exec.applyByproducts = !raw;
    exec.lossModel.cyclePeriodNs = cycle_ns;
    exec.noise = noise;
    // The compile seed doubles as the execution seed unless
    // overridden (clamped into the signed domain validate() checks).
    exec.seed = exec_seed_set
        ? exec_seed
        : static_cast<std::int64_t>(seed & 0x7fffffffffffffffull);

    int executed = 0;
    for (const std::string &name : selected) {
        exec.backend = name;
        auto result = driver.execute(program, exec);
        if (!result.ok()) {
            // Under "all", a backend that cannot run *this* program
            // (non-Clifford pattern, too many wires) is reported and
            // skipped; an explicitly requested backend is fatal.
            if (run_all &&
                result.status().code() ==
                    StatusCode::FailedPrecondition) {
                if (!quiet)
                    std::printf("backend %-11s skipped: %s\n",
                                name.c_str(),
                                result.status().message().c_str());
                continue;
            }
            return fail(result.status());
        }
        if (!quiet)
            printExecSummary(*result);
        report.addExecution(std::move(result.value()));
        ++executed;
    }
    if (executed == 0)
        return fail(Status::failedPrecondition(
            "no requested backend could execute this program"));

    if (!out_path.empty()) {
        const Status saved = saveArtifactFile(
            out_path, encodeCompileReportArtifact(report));
        if (!saved.ok())
            return fail(saved);
        if (!quiet)
            std::printf("wrote report artifact %s (%d execution(s))\n",
                        out_path.c_str(), executed);
    }
    return 0;
}

// --- inspect / stats -------------------------------------------------------

/** Decode an artifact file and JSON-print its payload. */
int
runInspect(const std::string &path)
{
    auto bytes = loadArtifactFile(path);
    if (!bytes.ok())
        return fail(bytes.status());
    auto view = openArtifact(*bytes);
    if (!view.ok())
        return fail(view.status());

    std::string json;
    switch (view->kind) {
      case ArtifactKind::Circuit: {
        auto decoded = decodeCircuitArtifact(*bytes);
        if (!decoded.ok())
            return fail(decoded.status());
        json = toJson(*decoded);
        break;
      }
      case ArtifactKind::Graph: {
        auto decoded = decodeGraphArtifact(*bytes);
        if (!decoded.ok())
            return fail(decoded.status());
        json = toJson(*decoded);
        break;
      }
      case ArtifactKind::Digraph: {
        auto decoded = decodeDigraphArtifact(*bytes);
        if (!decoded.ok())
            return fail(decoded.status());
        json = toJson(*decoded);
        break;
      }
      case ArtifactKind::Pattern: {
        auto decoded = decodePatternArtifact(*bytes);
        if (!decoded.ok())
            return fail(decoded.status());
        json = toJson(*decoded);
        break;
      }
      case ArtifactKind::Config: {
        auto decoded = decodeConfigArtifact(*bytes);
        if (!decoded.ok())
            return fail(decoded.status());
        json = toJson(*decoded);
        break;
      }
      case ArtifactKind::LocalSchedule: {
        auto decoded = decodeLocalScheduleArtifact(*bytes);
        if (!decoded.ok())
            return fail(decoded.status());
        json = toJson(*decoded);
        break;
      }
      case ArtifactKind::Schedule: {
        auto decoded = decodeScheduleArtifact(*bytes);
        if (!decoded.ok())
            return fail(decoded.status());
        json = toJson(*decoded);
        break;
      }
      case ArtifactKind::CompileReport: {
        auto decoded = decodeCompileReportArtifact(*bytes);
        if (!decoded.ok())
            return fail(decoded.status());
        json = toJson(*decoded);
        break;
      }
      case ArtifactKind::ExecResult: {
        auto decoded = decodeExecResultArtifact(*bytes);
        if (!decoded.ok())
            return fail(decoded.status());
        json = toJson(*decoded);
        break;
      }
      case ArtifactKind::NoiseConfig: {
        auto decoded = decodeNoiseConfigArtifact(*bytes);
        if (!decoded.ok())
            return fail(decoded.status());
        json = toJson(*decoded);
        break;
      }
      default:
        return fail(Status::invalidArgument(
            std::string("inspect does not support '") +
            artifactKindName(view->kind) + "' artifacts"));
    }
    std::printf("%s\n", json.c_str());
    return 0;
}

/** `dcmbqc stats --daemon SOCK`: the daemon's serving statistics. */
int
runStatsDaemon(const std::string &socket_path, bool json)
{
    ServiceClient client;
    Status status = client.connect(socket_path);
    if (!status.ok())
        return fail(status);
    auto stats = client.stats();
    if (!stats.ok())
        return fail(stats.status());
    if (json) {
        std::printf("%s\n", toJson(*stats).c_str());
        return 0;
    }

    const ServiceStats &s = *stats;
    TextTable table({"field", "value"});
    table.row().cell("socket").cell(socket_path);
    table.row()
        .cell("uptime")
        .cell(std::to_string(s.uptimeMillis / 1000) + " s");
    table.row()
        .cell("requests")
        .cell(static_cast<long long>(s.requestsTotal));
    table.row()
        .cell("  compile / execute")
        .cell(std::to_string(s.compileRequests) + " / " +
              std::to_string(s.executeRequests));
    table.row()
        .cell("  succeeded / failed")
        .cell(std::to_string(s.succeeded) + " / " +
              std::to_string(s.failed));
    table.row()
        .cell("  queue-full rejections")
        .cell(static_cast<long long>(s.rejectedQueueFull));
    table.row()
        .cell("  deadline exceeded")
        .cell(static_cast<long long>(s.deadlineExceeded));
    table.row()
        .cell("  cancelled")
        .cell(static_cast<long long>(s.cancelled));
    table.row()
        .cell("cache hit replies")
        .cell(static_cast<long long>(s.cacheHitReplies));
    table.row()
        .cell("  hot (served raw)")
        .cell(static_cast<long long>(s.hotReplies));
    const std::uint64_t lookups = s.cache.hits + s.cache.misses;
    table.row()
        .cell("cache hit rate")
        .cell(lookups > 0 ? static_cast<double>(s.cache.hits) /
                      static_cast<double>(lookups)
                          : 0.0,
              4);
    table.row()
        .cell("cache entries (memory)")
        .cell(static_cast<long long>(s.cacheEntries));
    table.row()
        .cell("cache disk hits/writes")
        .cell(std::to_string(s.cache.diskHits) + " / " +
              std::to_string(s.cache.diskWrites));
    table.row()
        .cell("queue")
        .cell(std::to_string(s.inFlight) + " in flight of " +
              std::to_string(s.queueLimit) + " slots, " +
              std::to_string(s.workers) + " worker(s)");
    table.row().cell("latency p50").cell(s.p50Millis, 2);
    table.row().cell("latency p99").cell(s.p99Millis, 2);
    table.row().cell("latency max").cell(s.maxMillis, 2);
    table.row()
        .cell("draining")
        .cell(s.draining ? "yes" : "no");
    if (s.portfolioRaces > 0) {
        table.row()
            .cell("portfolio races")
            .cell(static_cast<long long>(s.portfolioRaces));
        table.row()
            .cell("  candidates compiled")
            .cell(static_cast<long long>(s.portfolioCandidates));
        table.row()
            .cell("  cancelled early")
            .cell(static_cast<long long>(s.portfolioCancelledEarly));
        for (const ServiceStats::WinnerCount &winner :
             s.portfolioWinners)
            table.row()
                .cell("  wins " + winner.strategy)
                .cell(static_cast<long long>(winner.wins));
    }
    for (const ServiceStats::StageAggregate &stage : s.stages)
        table.row()
            .cell("stage " + stage.pass)
            .cell(std::to_string(stage.count) + " run(s), " +
                  std::to_string(stage.totalMillis) + " ms total");
    std::printf("%s", table.render("daemon stats").c_str());
    return 0;
}

/** `dcmbqc stats --cache-dir DIR`: offline disk-store summary. */
int
runStatsCacheDir(const std::string &dir)
{
    const DiskStoreStats stats = CompileCache::scanDiskStore(dir);
    TextTable table({"field", "value"});
    table.row().cell("store").cell(dir);
    table.row()
        .cell("entries")
        .cell(static_cast<long long>(stats.entries));
    table.row()
        .cell("total bytes")
        .cell(static_cast<long long>(stats.totalBytes));
    table.row().cell("shard dirs").cell(stats.shardDirs);
    table.row()
        .cell("flat (pre-shard) entries")
        .cell(static_cast<long long>(stats.flatEntries));
    table.row()
        .cell("unreadable entries")
        .cell(static_cast<long long>(stats.unreadable));
    std::printf("%s", table.render("cache store stats").c_str());
    return 0;
}

int
runStats(const std::string &path)
{
    auto bytes = loadArtifactFile(path);
    if (!bytes.ok())
        return fail(bytes.status());
    auto view = openArtifact(*bytes);
    if (!view.ok())
        return fail(view.status());

    TextTable table({"field", "value"});
    table.row().cell("file").cell(path);
    table.row().cell("kind").cell(artifactKindName(view->kind));
    table.row().cell("format version").cell(view->version);
    table.row()
        .cell("payload bytes")
        .cell(static_cast<long long>(view->payloadSize));

    switch (view->kind) {
      case ArtifactKind::Circuit: {
        auto decoded = decodeCircuitArtifact(*bytes);
        if (!decoded.ok())
            return fail(decoded.status());
        table.row().cell("name").cell(decoded->name());
        table.row().cell("qubits").cell(decoded->numQubits());
        table.row()
            .cell("gates")
            .cell(static_cast<long long>(decoded->numGates()));
        table.row()
            .cell("2q gates")
            .cell(static_cast<long long>(
                decoded->numTwoQubitGates()));
        table.row().cell("depth").cell(decoded->depth());
        break;
      }
      case ArtifactKind::Graph: {
        auto decoded = decodeGraphArtifact(*bytes);
        if (!decoded.ok())
            return fail(decoded.status());
        table.row().cell("nodes").cell(decoded->numNodes());
        table.row().cell("edges").cell(decoded->numEdges());
        break;
      }
      case ArtifactKind::Digraph: {
        auto decoded = decodeDigraphArtifact(*bytes);
        if (!decoded.ok())
            return fail(decoded.status());
        table.row().cell("nodes").cell(decoded->numNodes());
        table.row()
            .cell("arcs")
            .cell(static_cast<long long>(decoded->numArcs()));
        break;
      }
      case ArtifactKind::Pattern: {
        auto decoded = decodePatternArtifact(*bytes);
        if (!decoded.ok())
            return fail(decoded.status());
        table.row().cell("photons").cell(decoded->numNodes());
        table.row()
            .cell("edges")
            .cell(decoded->graph().numEdges());
        table.row().cell("wires").cell(decoded->numWires());
        break;
      }
      case ArtifactKind::CompileReport: {
        auto decoded = decodeCompileReportArtifact(*bytes);
        if (!decoded.ok())
            return fail(decoded.status());
        table.row().cell("label").cell(decoded->label);
        table.row()
            .cell("pipeline")
            .cell(decoded->distributed ? "distributed" : "baseline");
        const int exec = decoded->distributed
            ? decoded->result().executionTime()
            : decoded->baselineResult().executionTime();
        const int tau = decoded->distributed
            ? decoded->result().requiredLifetime()
            : decoded->baselineResult().requiredLifetime();
        table.row().cell("execution time").cell(exec);
        table.row().cell("required lifetime").cell(tau);
        table.row()
            .cell("stages")
            .cell(static_cast<long long>(decoded->stages.size()));
        table.row().cell("total ms").cell(decoded->totalMillis, 2);
        table.row()
            .cell("executions")
            .cell(static_cast<long long>(decoded->executions.size()));
        for (const ExecResult &execution : decoded->executions)
            table.row()
                .cell("  " + execution.backend)
                .cell(std::to_string(execution.completedShots) + "/" +
                      std::to_string(execution.shots) + " shots");
        if (decoded->distributed) {
            table.row()
                .cell("connectors")
                .cell(decoded->result().numConnectors);
            table.row()
                .cell("QPUs")
                .cell(static_cast<int>(
                    decoded->result().localSchedules.size()));
        }
        break;
      }
      case ArtifactKind::ExecResult: {
        auto decoded = decodeExecResultArtifact(*bytes);
        if (!decoded.ok())
            return fail(decoded.status());
        table.row().cell("backend").cell(decoded->backend);
        table.row().cell("label").cell(decoded->label);
        table.row()
            .cell("shots")
            .cell(std::to_string(decoded->completedShots) + "/" +
                  std::to_string(decoded->shots));
        table.row().cell("wires").cell(decoded->numWires);
        table.row()
            .cell("distinct outcomes")
            .cell(static_cast<long long>(decoded->counts.size()));
        if (decoded->analyticSuccessProbability >= 0.0) {
            table.row()
                .cell("survival rate")
                .cell(decoded->survivalRate(), 4);
            table.row()
                .cell("analytic success")
                .cell(decoded->analyticSuccessProbability, 4);
        }
        break;
      }
      default:
        break;
    }
    std::printf("%s", table.render("artifact stats").c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        return usage();
    const std::string command = argv[1];
    std::vector<std::string> args(argv + 2, argv + argc);

    if (command == "compile")
        return runCompile(args);
    if (command == "run")
        return runRun(args);
    if (command == "inspect" && args.size() == 1)
        return runInspect(args[0]);
    if (command == "stats") {
        // Three sources: a daemon's serving stats, an on-disk cache
        // store, or (the original form) one artifact file.
        std::string daemon_socket, cache_dir, file;
        bool json = false;
        for (std::size_t i = 0; i < args.size(); ++i) {
            if (args[i] == "--daemon" && i + 1 < args.size())
                daemon_socket = args[++i];
            else if (args[i] == "--cache-dir" && i + 1 < args.size())
                cache_dir = args[++i];
            else if (args[i] == "--json")
                json = true;
            else if (file.empty() && args[i][0] != '-')
                file = args[i];
            else
                return usage();
        }
        if (!daemon_socket.empty())
            return runStatsDaemon(daemon_socket, json);
        if (!cache_dir.empty())
            return runStatsCacheDir(cache_dir);
        if (!file.empty())
            return runStats(file);
        return usage();
    }
    return usage();
}

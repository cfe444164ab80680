/**
 * @file
 * exec_shots: programs are compiled during set-up; a round times only
 * the `CompilerDriver::execute` calls, one per (program, backend):
 *
 *  - stabilizer, schedule: seeded random Clifford circuits of 24-39
 *    qubits, compiled on 4 QPUs;
 *  - statevector: small random Clifford+T circuits (dense amplitudes);
 *  - mc-loss: the 36-qubit Table II schedules of compile_paper.
 *
 * Shots are sampled on `threads` threads. Every result is checked
 * against direct circuit simulation (exact tableau probabilities, dense
 * amplitudes within 1e-9) or, for mc-loss, against the analytic
 * survival probability within 5 sigma.
 */

#include <cmath>
#include <optional>

#include "circuit/generators.hh"
#include "photonic/grid.hh"
#include "serialize/codecs.hh"
#include "sim/stabilizer.hh"
#include "sim/statevector.hh"
#include "trace.hh"
#include "workloads.hh"

namespace perfbench
{

using namespace dcmbqc;

namespace
{

const std::vector<std::string> kBackends = {"stabilizer", "schedule",
                                            "statevector", "mc-loss"};

/**
 * Shots per execute call, per backend (in kBackends order), sized so
 * each backend takes a similar share of a round.
 */
const std::vector<int> kShots = {64, 48, 96, 20000};

/** One execution of a round: a program on one backend. */
struct Execution
{
    std::string name;
    int backend = 0;
    std::optional<ExecProgram> program;

    /** Tableau after the circuit on |+>^n (stabilizer/schedule). */
    std::optional<StabilizerSim> tableau;

    /** |amplitude|^2 of the circuit on |+>^n (statevector). */
    std::vector<double> probabilities;
};

/** Exact probability of `bits` (char w = qubit w) on a tableau. */
double
tableauProbability(StabilizerSim sim, const std::string &bits)
{
    double p = 1.0;
    for (int q = 0; q < sim.numQubits(); ++q) {
        const int want = bits[static_cast<std::size_t>(q)] == '1';
        const bool random = sim.zMeasurementIsRandom(q);
        const StabMeasureResult r = sim.measureZWithOutcome(q, want);
        if (random)
            p *= 0.5;
        else if (r.outcome != want)
            return 0.0;
    }
    return p;
}

StabilizerSim
directTableau(const Circuit &circuit)
{
    StabilizerSim sim(circuit.numQubits());
    for (int q = 0; q < circuit.numQubits(); ++q)
        sim.applyH(q);
    for (const Gate &gate : circuit.gates()) {
        switch (gate.kind) {
          case GateKind::H: sim.applyH(gate.q0); break;
          case GateKind::S: sim.applyS(gate.q0); break;
          case GateKind::Sdg: sim.applySdg(gate.q0); break;
          case GateKind::X: sim.applyX(gate.q0); break;
          case GateKind::Z: sim.applyZ(gate.q0); break;
          case GateKind::CZ: sim.applyCZ(gate.q0, gate.q1); break;
          case GateKind::CNOT: sim.applyCNOT(gate.q0, gate.q1); break;
          default: break;
        }
    }
    return sim;
}

class ExecBench
{
  public:
    ExecBench(const RunOptions &options, Checker &checker)
        : options_(options), checker_(checker)
    {
    }

    /** Build and compile every program (one set-up). */
    void
    setUp()
    {
        executions_.clear();
        artifactBytes_ = makespan_ = lifetime_ = 0;
        // Fixed circuit instances: how much the shot-prefix tree
        // shares depends on the circuit, and a seeded instance moves a
        // round by up to 40%. The run seed drives the shot seeds.
        for (int i = 0; i < 4; ++i) {
            const int qubits = 24 + 5 * i;
            const Circuit circuit =
                makeRandomCliffordCircuit(qubits, 8 * qubits, 100 + i);
            const auto report = compile(circuit, false);
            if (!report)
                continue;
            for (int backend : {0, 1}) {
                Execution e;
                e.name = "clifford-" + std::to_string(qubits) + "q#" +
                    std::to_string(i);
                e.backend = backend;
                e.program = ExecProgram::fromPattern(*report->pattern, e.name)
                                .withSchedule(*report->distributed);
                e.tableau = directTableau(circuit);
                executions_.push_back(std::move(e));
            }
        }
        for (int i = 0; i < 3; ++i) {
            const int qubits = 8 + i;
            Execution e;
            e.name = "cliffordt-" + std::to_string(qubits) + "q";
            e.backend = 2;
            const Circuit circuit =
                makeRandomCliffordTCircuit(qubits, 10 * qubits, 150 + i);
            e.program = ExecProgram::fromCircuit(circuit, e.name);
            StateVector direct(qubits, /*plus_basis=*/true);
            direct.applyCircuit(circuit);
            for (const auto &amp : direct.amplitudes())
                e.probabilities.push_back(std::norm(amp));
            executions_.push_back(std::move(e));
        }
        // The compile_paper instances; their schedules give this
        // workload's output figures.
        const std::vector<std::pair<std::string, Circuit>> paper = {
            {"QAOA-36", makeQaoaMaxcut(36)},
            {"VQE-36", makeVqe(36)},
            {"QFT-36", makeQft(36)},
            {"RCA-36", makeRippleCarryAdder(36)},
        };
        for (const auto &[name, circuit] : paper) {
            const auto report = compile(circuit, true);
            if (!report)
                continue;
            Execution e;
            e.name = name;
            e.backend = 3;
            e.program = ExecProgram::fromPattern(*report->pattern, name)
                            .withSchedule(*report->distributed);
            executions_.push_back(std::move(e));
        }
    }

    /** One round: every execution once; seconds per execution. */
    std::vector<double>
    round(int index, bool traced)
    {
        Tracer *tracer = traced ? &tracer_ : nullptr;
        const std::size_t mark = tracer_.mark();
        std::vector<double> millis(kBackends.size(), 0.0);
        std::vector<double> seconds;
        for (const Execution &e : executions_) {
            ExecOptions exec;
            exec.backend = kBackends[e.backend];
            exec.shots = kShots[e.backend];
            exec.numThreads = options_.threads;
            exec.seed = static_cast<std::int64_t>(options_.seed * 1000 +
                                                  index);
            const auto start = Clock::now();
            std::optional<Expected<ExecResult>> result;
            {
                ScopedSpan span(tracer, "exec." + exec.backend);
                result.emplace(driver_.execute(*e.program, exec));
            }
            millis[e.backend] += millisSince(start);
            seconds.push_back(millisSince(start) / 1e3);
            if (checker_.check(result->ok(),
                               e.name + " on " + exec.backend + ": " +
                                   result->status().toString()))
                checkResult(e, result->value());
        }
        if (traced)
            selfTimes_.push_back(tracer_.selfMillis(mark, tracer_.mark()));
        for (std::size_t b = 0; b < millis.size(); ++b)
            backendMillis_[b].push_back(millis[b]);
        return seconds;
    }

    void
    report(MetricSink &sink, const RoundTimes &times)
    {
        reportRounds(options_, sink, times);
        sink.set("artifact_kib", artifactBytes_ / 1024.0, "KiB");
        sink.set("makespan_cycles", makespan_, "cycles");
        sink.set("photon_lifetime_cycles", lifetime_, "cycles");
        for (std::size_t b = 0; b < kBackends.size(); ++b) {
            double shots = 0;
            for (const Execution &e : executions_)
                shots += e.backend == static_cast<int>(b) ? kShots[b] : 0;
            const double ms = median(backendMillis_[b]);
            const std::string name = "exec." + kBackends[b];
            sink.info("shots_per_s." + kBackends[b],
                      ms > 0 ? shots / (ms / 1e3) : 0.0, "1/s",
                      backendMillis_[b].size());
            if (options_.trace) {
                sink.set(name + ".shots", shots, "count");
                sink.set(name + ".shots_per_s",
                         ms > 0 ? shots / (ms / 1e3) : 0.0, "1/s",
                         backendMillis_[b].size());
            }
        }
        if (!options_.trace)
            return;
        reportSelfTimes(sink, selfTimes_);
        tracer_.writeChrome(options_.runDir + "/trace-exec_shots.json");
    }

  private:
    /** Compile on 4 QPUs; `figures` adds the result to the outputs. */
    std::optional<CompileReport>
    compile(const Circuit &circuit, bool figures)
    {
        const CompilerDriver driver(
            CompileOptions()
                .numQpus(4)
                .gridSize(gridSizeForQubits(circuit.numQubits()))
                .seed(1));
        auto report = driver.compile(CompileRequest::fromCircuit(circuit));
        if (!checker_.check(report.ok() && report->pattern &&
                                report->distributed,
                            "exec compile: " + report.status().toString()))
            return std::nullopt;
        if (!figures)
            return std::move(report.value());
        artifactBytes_ +=
            static_cast<double>(encodeCompileReportArtifact(*report).size());
        makespan_ += report->result().executionTime();
        lifetime_ += report->result().requiredLifetime();
        return std::move(report.value());
    }

    void
    checkResult(const Execution &e, const ExecResult &r)
    {
        const std::string what = e.name + " on " + kBackends[e.backend];
        if (e.backend == 3) {
            const double p = r.analyticSuccessProbability;
            const double sigma = std::sqrt(p * (1 - p) / r.shots);
            checker_.check(p >= 0 && std::abs(r.survivalRate() - p) <=
                                         5 * sigma + 1e-12,
                           what + ": survival " +
                               std::to_string(r.survivalRate()) +
                               " vs analytic " + std::to_string(p));
            return;
        }
        std::int64_t counted = 0;
        for (const auto &[bits, count] : r.counts)
            counted += count;
        checker_.check(counted == r.shots && !r.probabilities.empty(),
                       what + ": shot count or probabilities missing");
        if (e.backend == 2) {
            bool match = r.probabilities.size() <= e.probabilities.size();
            double total = 0;
            for (const auto &[bits, p] : r.probabilities) {
                total += p;
                std::size_t index = 0;
                for (std::size_t w = 0; w < bits.size(); ++w)
                    index |= static_cast<std::size_t>(bits[w] == '1') << w;
                match = match && index < e.probabilities.size() &&
                    std::abs(e.probabilities[index] - p) <= 1e-9;
            }
            checker_.check(match && std::abs(total - 1.0) <= 1e-9,
                           what + ": probabilities differ from "
                                         "direct simulation");
            return;
        }
        for (const auto &[bits, p] : r.probabilities)
            checker_.check(bits.size() ==
                                   static_cast<std::size_t>(
                                       e.tableau->numQubits()) &&
                               std::abs(tableauProbability(*e.tableau,
                                                           bits) -
                                        p) <= 1e-12,
                           what + ": outcome " + bits +
                               " probability differs from the tableau");
    }

    const RunOptions &options_;
    Checker &checker_;
    CompilerDriver driver_;
    Tracer tracer_;
    std::vector<Execution> executions_;
    double artifactBytes_ = 0, makespan_ = 0, lifetime_ = 0;
    std::vector<double> backendMillis_[4];
    std::vector<std::map<std::string, double>> selfTimes_;
};

} // namespace

void
runExecShots(const RunOptions &options, Checker &checker, MetricSink &sink)
{
    ExecBench bench(options, checker);
    sink.set("setup_s", medianSetup(5, [&] { bench.setUp(); }), "s", 5);
    const RoundTimes times = runRounds(
        options, 5,
        [&](int index, bool traced) { return bench.round(index, traced); });
    bench.report(sink, times);
}

} // namespace perfbench

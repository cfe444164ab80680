/**
 * @file
 * Equivalence suite for the optimized simulation kernels: the
 * bit-packed tableau against the scalar reference (outcomes,
 * deterministic/random verdicts, isStabilizer/anticommutes on random
 * PauliStrings, 200+ seeded circuits), the AVX2 amplitude kernels
 * (butterfly and measurement sweep) against the portable kernels to
 * exact ULP, the in-place measurement against a std::complex
 * projection per branch, CZs folded into qubit creation against one
 * CZ per neighbour, the live-photon window
 * against the full graph state under identical seeds on the
 * stabilizer and schedule backends, the once-per-run symbolic replay
 * against the scalar per-shot replay shot by shot (and its bit-63
 * draw against Rng::bernoulli(0.5)), thread-count invariance of the
 * shot loop, and the mc-loss draw kernels (integer thresholds
 * against Rng::bernoulli, AVX2 lanes against the portable loop).
 * Every fast path must be *bit-identical* to its reference — these
 * tests use EXPECT_EQ / memcmp, never tolerances.
 */

#include <gtest/gtest.h>

#include <cmath>
#include <cstring>
#include <limits>
#include <utility>
#include <vector>

#include "api/api.hh"
#include "circuit/generators.hh"
#include "common/rng.hh"
#include "exec/loss_backend.hh"
#include "exec/loss_kernels.hh"
#include "exec/schedule_backend.hh"
#include "exec/stabilizer_replay.hh"
#include "photonic/grid.hh"
#include "serialize/codecs.hh"
#include "sim/kernel_config.hh"
#include "sim/stabilizer.hh"
#include "sim/stabilizer_reference.hh"
#include "sim/statevector.hh"
#include "sim/sv_kernels.hh"

namespace dcmbqc
{
namespace
{

/** Replay a Clifford circuit on either tableau implementation. */
template <class Sim>
void
applyClifford(const Circuit &circuit, Sim &sim)
{
    for (const Gate &gate : circuit.gates()) {
        switch (gate.kind) {
          case GateKind::H: sim.applyH(gate.q0); break;
          case GateKind::S: sim.applyS(gate.q0); break;
          case GateKind::Sdg: sim.applySdg(gate.q0); break;
          case GateKind::X: sim.applyX(gate.q0); break;
          case GateKind::Z: sim.applyZ(gate.q0); break;
          case GateKind::CZ: sim.applyCZ(gate.q0, gate.q1); break;
          case GateKind::CNOT:
            sim.applyCNOT(gate.q0, gate.q1);
            break;
          default:
            FAIL() << "non-Clifford gate " << gate.toString();
        }
    }
}

/** A uniformly random signed Pauli on `qubits` qubits. */
PauliString
randomPauli(int qubits, Rng &rng)
{
    PauliString p(qubits);
    for (int q = 0; q < qubits; ++q) {
        switch (rng.uniformInt(4)) {
          case 1: p.withX(q); break;
          case 2: p.withZ(q); break;
          case 3: p.withY(q); break;
          default: break;
        }
    }
    p.withSign(rng.bernoulli(0.5));
    return p;
}

/**
 * One seeded circuit of the packed-vs-scalar property: identical
 * gate stream into both tableaus, then identical queries — random
 * Pauli membership tests, per-row symplectic products, and a full
 * measurement sweep alternating Z and X bases with twin RNGs that
 * must stay in lockstep (deterministic measurements consume no
 * randomness on either side).
 */
void
checkPackedMatchesScalar(int qubits, int gates, std::uint64_t seed)
{
    SCOPED_TRACE("qubits=" + std::to_string(qubits) +
                 " gates=" + std::to_string(gates) +
                 " seed=" + std::to_string(seed));
    const Circuit circuit =
        makeRandomCliffordCircuit(qubits, gates, seed);

    StabilizerSim packed(qubits);
    ScalarStabilizerSim scalar(qubits);
    applyClifford(circuit, packed);
    applyClifford(circuit, scalar);

    Rng prng(seed * 77 + 1);
    for (int trial = 0; trial < 4; ++trial) {
        const PauliString p = randomPauli(qubits, prng);
        const PackedPauli packed_view(p);
        const bool expected = scalar.isStabilizer(p);
        EXPECT_EQ(packed.isStabilizer(p), expected);
        EXPECT_EQ(packed.isStabilizer(packed_view), expected);
        for (int row = 0; row < 2 * qubits; ++row) {
            const int want = scalar.anticommutes(row, p);
            EXPECT_EQ(packed.anticommutes(row, p), want);
            EXPECT_EQ(packed.anticommutes(row, packed_view), want);
        }
    }

    Rng rng_packed(seed);
    Rng rng_scalar(seed);
    for (int q = 0; q < qubits; ++q) {
        EXPECT_EQ(packed.zMeasurementIsRandom(q),
                  scalar.zMeasurementIsRandom(q));
        const bool x_basis = (q + static_cast<int>(seed)) % 2 == 0;
        const StabMeasureResult a = x_basis
            ? packed.measureX(q, rng_packed)
            : packed.measureZ(q, rng_packed);
        const StabMeasureResult b = x_basis
            ? scalar.measureX(q, rng_scalar)
            : scalar.measureZ(q, rng_scalar);
        EXPECT_EQ(a.outcome, b.outcome);
        EXPECT_EQ(a.deterministic, b.deterministic);
        // The branch probability is fully determined by the verdict
        // (1 for deterministic, 1/2 for random): verdict equality is
        // probability equality, exactly.
    }
    // The twin RNGs consumed identical draw counts iff their next
    // outputs still agree.
    EXPECT_EQ(rng_packed.next(), rng_scalar.next());
}

TEST(SimKernels, PackedTableauMatchesScalarOn200RandomCircuits)
{
    for (std::uint64_t seed = 0; seed < 200; ++seed)
        checkPackedMatchesScalar(/*qubits=*/2 + seed % 7,
                                 /*gates=*/8 + seed % 17,
                                 7000 + seed);
}

TEST(SimKernels, PackedTableauCrossesWordBoundaries)
{
    // 64 qubits lands on the word boundary, 70 spans two words: the
    // interesting packing edges for shifts and end-of-row masks.
    for (const int qubits : {63, 64, 65, 70})
        checkPackedMatchesScalar(qubits, /*gates=*/200,
                                 9000 + static_cast<std::uint64_t>(
                                            qubits));
}

TEST(SimKernels, PackedGraphStateStabilizersMatchScalar)
{
    // Graph-state generators K_i = X_i prod_{j in N(i)} Z_j must be
    // accepted by both implementations, and rejected when signed.
    Graph g(6, {{0, 1}, {1, 2}, {2, 3}, {3, 4}, {4, 5}, {5, 0}, {0, 3}});
    StabilizerSim packed(6);
    ScalarStabilizerSim scalar(6);
    packed.prepareGraphState(g);
    scalar.prepareGraphState(g);
    for (NodeId i = 0; i < 6; ++i) {
        PauliString k = StabilizerSim::graphStabilizer(g, i);
        EXPECT_TRUE(packed.isStabilizer(k));
        EXPECT_TRUE(scalar.isStabilizer(k));
        k.withSign(true);
        EXPECT_FALSE(packed.isStabilizer(k));
        EXPECT_FALSE(scalar.isStabilizer(k));
    }
}

// --- Dense amplitude kernels -----------------------------------------------

/** Random normalized-ish amplitude array (exact values irrelevant). */
std::vector<sv::Amp>
randomAmps(std::size_t size, Rng &rng)
{
    std::vector<sv::Amp> amps(size);
    for (auto &a : amps)
        a = sv::Amp(rng.uniform() * 2.0 - 1.0,
                    rng.uniform() * 2.0 - 1.0);
    return amps;
}

TEST(SimKernels, Avx2KernelMatchesPortableToExactUlp)
{
#if defined(__x86_64__) || defined(_M_X64)
    if (!sv::cpuHasAvx2())
        GTEST_SKIP() << "CPU lacks AVX2; dispatch covers this case";
    Rng rng(42);
    for (int n = 1; n <= 10; ++n) {
        for (int trial = 0; trial < 20; ++trial) {
            const std::vector<sv::Amp> base =
                randomAmps(std::size_t(1) << n, rng);
            const sv::Amp m[4] = {
                sv::Amp(rng.uniform(), rng.uniform()),
                sv::Amp(rng.uniform(), rng.uniform()),
                sv::Amp(rng.uniform(), rng.uniform()),
                sv::Amp(rng.uniform(), rng.uniform()),
            };
            for (int q = 0; q < n; ++q) {
                std::vector<sv::Amp> portable = base;
                std::vector<sv::Amp> vectorized = base;
                sv::apply1qPortable(portable.data(), portable.size(),
                                    q, m);
                sv::apply1qAvx2(vectorized.data(), vectorized.size(),
                                q, m);
                // Bitwise, not approximate: both kernels perform the
                // identical IEEE-754 operation sequence.
                EXPECT_EQ(std::memcmp(portable.data(),
                                      vectorized.data(),
                                      portable.size() *
                                          sizeof(sv::Amp)),
                          0)
                    << "n=" << n << " q=" << q
                    << " trial=" << trial;
            }
        }
    }
#else
    GTEST_SKIP() << "non-x86 build has no AVX2 kernel";
#endif
}

TEST(SimKernels, StateVectorIsBitIdenticalAcrossKernelSelections)
{
    // End-to-end: the same Clifford+T circuit applied gate by gate
    // under Portable and Avx2 dispatch must leave bit-identical
    // amplitude arrays.
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        const int qubits = 2 + static_cast<int>(seed % 5);
        const Circuit circuit = makeRandomCliffordTCircuit(
            qubits, 12 + static_cast<int>(seed % 9), 300 + seed);

        simKernelConfig() = {true, true, SvKernel::Portable};
        StateVector portable(qubits);
        portable.applyCircuit(circuit);

        simKernelConfig() = {true, true, SvKernel::Avx2};
        StateVector vectorized(qubits);
        vectorized.applyCircuit(circuit);
        resetSimKernelConfig();

        const auto &a = portable.amplitudes();
        const auto &b = vectorized.amplitudes();
        ASSERT_EQ(a.size(), b.size());
        EXPECT_EQ(std::memcmp(a.data(), b.data(),
                              a.size() * sizeof(sv::Amp)),
                  0)
            << "seed=" << seed;
    }
}

// --- Measurement sweep -----------------------------------------------------

constexpr double kInvSqrt2 = 0.70710678118654752440;

/** XY angles with exact zeros in the basis (0, pi/2, pi) and without. */
const double kSweepAngles[] = {0.0, 0.7853981633974483, 1.5707963267948966,
                               3.141592653589793, 2.2, -1.3};

/** The XY basis vector of `theta`, as StateVector builds it. */
std::pair<sv::Amp, sv::Amp>
xyBasis(double theta)
{
    return {sv::Amp(kInvSqrt2),
            std::exp(sv::Amp(0.0, 1.0) * theta) * kInvSqrt2};
}

/** A generic n-qubit state: rotations on every qubit, then a CZ chain. */
StateVector
randomState(int n, Rng &rng)
{
    StateVector state(n);
    for (int q = 0; q < n; ++q) {
        state.applyRY(q, rng.uniform() * 6.0);
        state.applyRZ(q, rng.uniform() * 6.0);
    }
    for (int q = 0; q + 1 < n; ++q)
        state.applyCZ(q, q + 1);
    for (int q = 0; q < n; ++q)
        state.applyRX(q, rng.uniform() * 6.0);
    return state;
}

/** Amplitudes and probability of one collapsed measurement. */
struct Collapsed
{
    std::vector<sv::Amp> amps;
    double probability = 0.0;
};

/**
 * The measurement as the simulator first wrote it, the oracle of the
 * in-place sweep: a fresh buffer per projection in std::complex
 * arithmetic, the second projection only for outcome 1, and a
 * separate rescale.
 */
Collapsed
allocatingMeasureXY(const std::vector<sv::Amp> &amps, int q, sv::Amp b0,
                    sv::Amp b1, int outcome)
{
    const std::size_t stride = std::size_t(1) << q;
    const std::size_t half = amps.size() / 2;
    auto project = [&](sv::Amp k0, sv::Amp k1,
                       std::vector<sv::Amp> &out) {
        out.assign(half, 0.0);
        double prob = 0.0;
        for (std::size_t r = 0; r < half; ++r) {
            const std::size_t low = r & (stride - 1);
            const std::size_t high = (r >> q) << (q + 1);
            const std::size_t i0 = high | low;
            const std::size_t i1 = i0 | stride;
            const sv::Amp value =
                std::conj(k0) * amps[i0] + std::conj(k1) * amps[i1];
            out[r] = value;
            prob += std::norm(value);
        }
        return prob;
    };
    Collapsed c;
    c.probability = project(b0, b1, c.amps);
    if (outcome == 1)
        c.probability = project(b0, -b1, c.amps);
    const double scale = 1.0 / std::sqrt(c.probability);
    for (auto &a : c.amps)
        a *= scale;
    return c;
}

/** The Z-basis counterpart of allocatingMeasureXY. */
Collapsed
allocatingMeasureZ(const std::vector<sv::Amp> &amps, int q, int outcome)
{
    const std::size_t stride = std::size_t(1) << q;
    const std::size_t half = amps.size() / 2;
    Collapsed c;
    c.amps.assign(half, 0.0);
    for (std::size_t r = 0; r < half; ++r) {
        const std::size_t low = r & (stride - 1);
        const std::size_t high = (r >> q) << (q + 1);
        c.amps[r] = amps[(high | low) | (outcome ? stride : 0)];
        c.probability += std::norm(c.amps[r]);
    }
    const double scale = 1.0 / std::sqrt(c.probability);
    for (auto &a : c.amps)
        a *= scale;
    return c;
}

/** Bitwise equality of two amplitude arrays. */
bool
sameBits(const std::vector<sv::Amp> &a, const std::vector<sv::Amp> &b)
{
    return a.size() == b.size() &&
        std::memcmp(a.data(), b.data(), a.size() * sizeof(sv::Amp)) == 0;
}

TEST(SimKernels, Avx2MeasureSweepMatchesPortableToExactUlp)
{
#if defined(__x86_64__) || defined(_M_X64)
    if (!sv::cpuHasAvx2())
        GTEST_SKIP() << "CPU lacks AVX2; dispatch covers this case";
    Rng rng(17);
    for (int n = 1; n <= 12; ++n) {
        const std::vector<sv::Amp> amps =
            randomAmps(std::size_t(1) << n, rng);
        const StateVector state = randomState(n, rng);
        const std::size_t half = amps.size() / 2;
        for (int q = 0; q < n; ++q) {
            for (const double theta : kSweepAngles) {
                SCOPED_TRACE("n=" + std::to_string(n) + " q=" +
                             std::to_string(q) + " theta=" +
                             std::to_string(theta));
                const auto [b0, b1] = xyBasis(theta);
                const sv::Amp k[3] = {std::conj(b0), std::conj(b1),
                                      std::conj(-b1)};
                std::vector<sv::Amp> portable(2 * half);
                std::vector<sv::Amp> vectorized(2 * half);
                const sv::BranchNorms a = sv::measureSweepPortable(
                    amps.data(), amps.size(), q, k, portable.data(),
                    portable.data() + half);
                const sv::BranchNorms b = sv::measureSweepAvx2(
                    amps.data(), amps.size(), q, k, vectorized.data(),
                    vectorized.data() + half);
                EXPECT_TRUE(sameBits(portable, vectorized));
                EXPECT_EQ(a.p0, b.p0);
                EXPECT_EQ(a.p1, b.p1);

                // Through StateVector under each dispatch, both
                // outcomes forced.
                for (int outcome : {0, 1}) {
                    Rng unused(1);
                    simKernelConfig().svKernel = SvKernel::Portable;
                    StateVector p = state;
                    const MeasureResult rp =
                        p.measureXYAndRemove(q, theta, unused, outcome);
                    simKernelConfig().svKernel = SvKernel::Avx2;
                    StateVector v = state;
                    const MeasureResult rv =
                        v.measureXYAndRemove(q, theta, unused, outcome);
                    resetSimKernelConfig();
                    EXPECT_TRUE(sameBits(p.amplitudes(), v.amplitudes()))
                        << "outcome " << outcome;
                    EXPECT_EQ(rp.probability, rv.probability);
                }
            }
        }
    }
#else
    GTEST_SKIP() << "non-x86 build has no AVX2 kernel";
#endif
}

TEST(SimKernels, InPlaceMeasurementMatchesTheAllocatingProjection)
{
    // Same IEEE-754 operations in the same order as a std::complex
    // projection per branch: every amplitude and the reported
    // probability agree bit for bit, under either kernel.
    Rng rng(29);
    for (const SvKernel kernel : {SvKernel::Portable, SvKernel::Auto}) {
        for (int n = 1; n <= 10; ++n) {
            const StateVector state = randomState(n, rng);
            for (int q = 0; q < n; ++q) {
                for (int outcome : {0, 1}) {
                    SCOPED_TRACE("n=" + std::to_string(n) + " q=" +
                                 std::to_string(q) + " outcome=" +
                                 std::to_string(outcome));
                    Rng unused(1);
                    simKernelConfig().svKernel = kernel;
                    for (const double theta : kSweepAngles) {
                        const auto [b0, b1] = xyBasis(theta);
                        const Collapsed want = allocatingMeasureXY(
                            state.amplitudes(), q, b0, b1, outcome);
                        StateVector got = state;
                        const MeasureResult r = got.measureXYAndRemove(
                            q, theta, unused, outcome);
                        EXPECT_EQ(r.outcome, outcome);
                        EXPECT_EQ(r.probability, want.probability)
                            << "theta=" << theta;
                        EXPECT_TRUE(sameBits(got.amplitudes(), want.amps))
                            << "theta=" << theta;
                        EXPECT_EQ(got.numQubits(), n - 1);
                    }
                    const Collapsed want =
                        allocatingMeasureZ(state.amplitudes(), q, outcome);
                    StateVector got = state;
                    const MeasureResult r =
                        got.measureZAndRemove(q, unused, outcome);
                    resetSimKernelConfig();
                    EXPECT_EQ(r.probability, want.probability);
                    EXPECT_TRUE(sameBits(got.amplitudes(), want.amps));
                }
            }
        }
    }
}

TEST(SimKernels, SampledOutcomeDrawsOneUniformAgainstP0)
{
    // A sampled measurement draws exactly one uniform and picks
    // outcome 0 below p0, so each shot's stream is unchanged.
    Rng rng(31);
    for (int trial = 0; trial < 200; ++trial) {
        const int n = 1 + trial % 8;
        const int q = trial % n;
        const StateVector state = randomState(n, rng);
        const double theta = rng.uniform() * 6.0;
        const auto [b0, b1] = xyBasis(theta);
        const Collapsed zero =
            allocatingMeasureXY(state.amplitudes(), q, b0, b1, 0);
        Rng draws(1000 + trial);
        Rng twin(1000 + trial);
        StateVector got = state;
        const MeasureResult r = got.measureXYAndRemove(q, theta, draws);
        EXPECT_EQ(r.outcome, twin.uniform() < zero.probability ? 0 : 1);
        EXPECT_EQ(draws.next(), twin.next()) << "trial " << trial;
    }
}

TEST(SimKernels, CzMaskOnCreationEqualsOneCzPerBit)
{
    Rng rng(37);
    for (int n = 0; n <= 10; ++n) {
        const StateVector state = randomState(n, rng);
        for (int trial = 0; trial < 8; ++trial) {
            const std::size_t mask = n == 0
                ? 0
                : static_cast<std::size_t>(rng.next()) &
                    ((std::size_t(1) << n) - 1);
            SCOPED_TRACE("n=" + std::to_string(n) + " mask=" +
                         std::to_string(mask));
            StateVector folded = state;
            EXPECT_EQ(folded.addQubitPlus(mask), n);
            StateVector separate = state;
            separate.addQubitPlus();
            for (int b = 0; b < n; ++b)
                if (mask & (std::size_t(1) << b))
                    separate.applyCZ(n, b);
            EXPECT_TRUE(
                sameBits(folded.amplitudes(), separate.amplitudes()));
        }
    }
}

TEST(SimKernels, QuarterSweepCzNegatesExactlyTheBothBitsSetIndices)
{
    Rng rng(41);
    for (int n = 2; n <= 9; ++n) {
        const StateVector state = randomState(n, rng);
        for (int a = 0; a < n; ++a) {
            for (int b = 0; b < n; ++b) {
                if (a == b)
                    continue;
                std::vector<sv::Amp> want = state.amplitudes();
                const std::size_t mask =
                    (std::size_t(1) << a) | (std::size_t(1) << b);
                for (std::size_t i = 0; i < want.size(); ++i)
                    if ((i & mask) == mask)
                        want[i] = -want[i];
                StateVector got = state;
                got.applyCZ(a, b);
                EXPECT_TRUE(sameBits(got.amplitudes(), want))
                    << "n=" << n << " a=" << a << " b=" << b;
            }
        }
    }
}

// --- Shot scheduler --------------------------------------------------------

/** Execute one backend run under a given kernel configuration. */
ExecResult
runBackend(const ExecProgram &program, const char *backend,
           int shots, std::int64_t seed, int threads,
           const SimKernelConfig &config)
{
    simKernelConfig() = config;
    ExecOptions options;
    options.backend = backend;
    options.shots = shots;
    options.seed = seed;
    options.numThreads = threads;
    auto result = executeProgram(program, options);
    resetSimKernelConfig();
    EXPECT_TRUE(result.ok()) << result.status().toString();
    return result.ok() ? *result : ExecResult{};
}

/** A compiled program every backend (incl. schedule) can execute. */
ExecProgram
compiledCliffordProgram(std::uint64_t seed)
{
    const CompilerDriver driver(
        CompileOptions().numQpus(2).gridSize(7).seed(seed));
    const auto request = CompileRequest::fromCircuit(
        makeRandomCliffordCircuit(4, 14, seed), "shot-sched");
    auto report = driver.compile(request);
    EXPECT_TRUE(report.ok()) << report.status().toString();
    return ExecProgram::fromPattern(*report->pattern, "shot-sched")
        .withSchedule(*report->distributed);
}

TEST(SimKernels, LiveWindowMatchesFullGraphStateSampling)
{
    // Same seeds, window on vs off: the window only defers and
    // reuses photons, so every sampled bitstring — and the exact
    // probability map — must be identical.
    const ExecProgram program = compiledCliffordProgram(21);
    const SimKernelConfig full{true, false, SvKernel::Auto};
    const SimKernelConfig window{true, true, SvKernel::Auto};
    for (const char *backend : {"stabilizer", "schedule"}) {
        SCOPED_TRACE(backend);
        const ExecResult a =
            runBackend(program, backend, 200, 17, 2, full);
        const ExecResult b =
            runBackend(program, backend, 200, 17, 2, window);
        EXPECT_EQ(a.counts, b.counts);
        EXPECT_EQ(a.probabilities, b.probabilities);
        EXPECT_EQ(a.completedShots, b.completedShots);
        EXPECT_EQ(a.notes, b.notes);
    }
}

TEST(SimKernels, PerShotLoopIsThreadCountInvariant)
{
    // Workers share only the read-only plan; each shot runs from its
    // own seed start to finish, so 1, 3, and 8 workers must agree
    // exactly.
    const ExecProgram program = compiledCliffordProgram(22);
    const SimKernelConfig window{true, true, SvKernel::Auto};
    for (const char *backend : {"stabilizer", "schedule"}) {
        SCOPED_TRACE(backend);
        const ExecResult serial =
            runBackend(program, backend, 128, 5, 1, window);
        for (const int threads : {3, 8}) {
            const ExecResult parallel = runBackend(
                program, backend, 128, 5, threads, window);
            EXPECT_EQ(serial.counts, parallel.counts) << threads;
            EXPECT_EQ(serial.probabilities, parallel.probabilities)
                << threads;
            EXPECT_EQ(serial.lostShots, parallel.lostShots)
                << threads;
        }
    }
}

/**
 * The four Clifford programs of perfbench's exec_shots workload:
 * 24/29/34/39 qubits, 8 gates per qubit, compiled on 4 QPUs.
 */
std::vector<ExecProgram>
execShotsCliffordPrograms()
{
    std::vector<ExecProgram> programs;
    for (int i = 0; i < 4; ++i) {
        const int qubits = 24 + 5 * i;
        const CompilerDriver driver(
            CompileOptions()
                .numQpus(4)
                .gridSize(gridSizeForQubits(qubits))
                .seed(1));
        auto report = driver.compile(CompileRequest::fromCircuit(
            makeRandomCliffordCircuit(qubits, 8 * qubits, 100 + i)));
        EXPECT_TRUE(report.ok()) << report.status().toString();
        if (!report.ok())
            continue;
        programs.push_back(
            ExecProgram::fromPattern(*report->pattern, "exec-shots")
                .withSchedule(*report->distributed));
    }
    return programs;
}

TEST(SimKernels, LiveWindowIsAsWideAsThePeakOfLivePhotons)
{
    // 333-562 pattern nodes, but never more than 25-40 photons
    // alive, in the pattern's order and in the schedule's.
    const std::vector<ExecProgram> programs =
        execShotsCliffordPrograms();
    ASSERT_EQ(programs.size(), 4u);
    const int widths[] = {25, 30, 35, 40};
    for (std::size_t i = 0; i < programs.size(); ++i) {
        const Pattern &pattern = programs[i].pattern();
        auto times = schedulePhotonTimes(programs[i].schedule(),
                                         pattern.numNodes());
        ASSERT_TRUE(times.ok()) << times.status().toString();
        auto schedule_order = scheduleMeasurementOrder(pattern, *times);
        ASSERT_TRUE(schedule_order.ok())
            << schedule_order.status().toString();
        const std::vector<NodeId> *orders[] = {
            &pattern.measurementOrder(), &*schedule_order};
        for (const std::vector<NodeId> *order : orders) {
            EXPECT_EQ(planReplay(pattern, *order, /*live_window=*/true)
                          .width,
                      widths[i])
                << "program " << i;
            EXPECT_EQ(planReplay(pattern, *order, /*live_window=*/false)
                          .width,
                      pattern.numNodes())
                << "program " << i;
        }
    }
}

/**
 * Every replay setting of one pattern and order, `shots` shots each:
 * the symbolic replay must give the scalar per-shot replay's bits
 * and random output count, and leave the shot stream at the same
 * next draw.
 */
void
checkSymbolicMatchesScalar(const Pattern &pattern,
                           const std::vector<NodeId> &order, int shots,
                           std::int64_t seed)
{
    auto turns = cliffordBaseTurns(pattern, "stabilizer");
    ASSERT_TRUE(turns.ok()) << turns.status().toString();
    for (const bool byproducts : {true, false}) {
        for (const bool window : {true, false}) {
            SCOPED_TRACE(std::string(byproducts ? "byproducts" : "raw") +
                         (window ? " window" : " full graph state"));
            const SymbolicReplay symbolic(pattern, order, *turns,
                                          byproducts, window);
            const ScalarReplayStepper scalar(pattern, order, *turns,
                                             byproducts, window);
            std::vector<std::uint64_t> draws;
            std::string got;
            std::string want;
            for (int shot = 0; shot < shots; ++shot) {
                Rng symbolic_rng(shotSeed(seed, shot));
                Rng scalar_rng(shotSeed(seed, shot));
                ASSERT_EQ(symbolic.sample(symbolic_rng, draws, got),
                          scalar.run(scalar_rng, want))
                    << "shot " << shot;
                ASSERT_EQ(got, want) << "shot " << shot;
                ASSERT_EQ(symbolic_rng.next(), scalar_rng.next())
                    << "shot " << shot;
            }
        }
    }
}

TEST(SimKernels, SymbolicReplayMatchesScalarPerShotReplay)
{
    // Random Clifford circuits from 1 to 32 qubits in the pattern's
    // order, and from 4 qubits on also in the schedule order of a
    // 4-QPU compile. Up to 5 qubits they are as deep as exec_shots'
    // programs; past that, fewer gates a qubit keep the scalar full
    // graph state affordable.
    for (const int qubits : {1, 2, 3, 5, 8, 12, 20, 32}) {
        const int gates = qubits <= 5 ? 8 * qubits
                        : qubits <= 12 ? 3 * qubits
                                       : qubits;
        const std::uint64_t seed = 500 + static_cast<std::uint64_t>(qubits);
        SCOPED_TRACE(std::to_string(qubits) + " qubits");
        const Circuit circuit =
            makeRandomCliffordCircuit(qubits, gates, seed);
        const Pattern pattern =
            ExecProgram::fromCircuit(circuit).pattern();
        {
            SCOPED_TRACE("pattern order");
            checkSymbolicMatchesScalar(pattern,
                                       pattern.measurementOrder(), 100,
                                       static_cast<std::int64_t>(seed));
        }
        if (qubits < 4)
            continue;
        auto report =
            CompilerDriver(CompileOptions()
                               .numQpus(4)
                               .gridSize(gridSizeForQubits(qubits))
                               .seed(1))
                .compile(CompileRequest::fromCircuit(circuit));
        ASSERT_TRUE(report.ok()) << report.status().toString();
        const Pattern &compiled = *report->pattern;
        auto times = schedulePhotonTimes(*report->distributed,
                                         compiled.numNodes());
        ASSERT_TRUE(times.ok()) << times.status().toString();
        auto order = scheduleMeasurementOrder(compiled, *times);
        ASSERT_TRUE(order.ok()) << order.status().toString();
        SCOPED_TRACE("schedule order");
        checkSymbolicMatchesScalar(compiled, *order, 100,
                                   static_cast<std::int64_t>(seed));
    }
}

TEST(SimKernels, Bit63DrawEqualsBernoulliHalfDrawByDraw)
{
    // The symbolic replay reads a fair outcome as bit 63 of next():
    // bernoulli(0.5) is (next() >> 11) * 2^-53 < 0.5.
    for (const std::uint64_t seed : {0ull, 1ull, 42ull,
                                     0x9e3779b97f4a7c15ull}) {
        Rng bernoulli(seed);
        Rng raw(seed);
        for (int draw = 0; draw < 300000; ++draw)
            ASSERT_EQ(bernoulli.bernoulli(0.5), (raw.next() >> 63) == 0)
                << "seed " << seed << ", draw " << draw;
    }
    // Random draws rarely land next to 2^63; check there directly.
    const std::uint64_t half = std::uint64_t(1) << 63;
    for (const std::uint64_t x :
         {std::uint64_t{0}, half - 2049, half - 2048, half - 1, half,
          half + 1, ~std::uint64_t{0}})
        EXPECT_EQ((x >> 11) * 0x1.0p-53 < 0.5, (x >> 63) == 0) << x;
}

/** Encoded result bytes, wall time and thread count cleared. */
std::vector<std::uint8_t>
resultBytes(ExecResult result)
{
    result.wallMillis = 0.0;
    result.threads = 1;
    return encodeExecResultArtifact(result);
}

TEST(SimKernels, LiveWindowMatchesFullGraphStateOnExecShotsPrograms)
{
    // Programs whose window is under a tenth of the pattern: every
    // shot must sample the full graph state's outcomes, at any
    // thread count, down to the serialized result.
    const SimKernelConfig full{true, false, SvKernel::Auto};
    const SimKernelConfig window{true, true, SvKernel::Auto};
    const std::vector<ExecProgram> programs =
        execShotsCliffordPrograms();
    ASSERT_EQ(programs.size(), 4u);
    for (std::size_t i = 0; i < programs.size(); ++i) {
        for (const char *backend : {"stabilizer", "schedule"}) {
            const std::vector<std::uint8_t> expected = resultBytes(
                runBackend(programs[i], backend, 64, 3, 4, full));
            for (const int threads : {1, 4}) {
                SCOPED_TRACE(std::string(backend) + " program " +
                             std::to_string(i) + " threads " +
                             std::to_string(threads));
                EXPECT_EQ(resultBytes(runBackend(programs[i], backend,
                                                 64, 3, threads,
                                                 window)),
                          expected);
            }
        }
    }
}

TEST(SimKernels, LiveWindowMatchesFullGraphStateWithoutMeasurements)
{
    // A CZ-only circuit lowers to its output nodes alone: the window
    // creates every photon before the output phase.
    Circuit circuit(4, "cz-only");
    circuit.cz(0, 1);
    circuit.cz(1, 2);
    circuit.cz(2, 3);
    circuit.cz(0, 3);
    const ExecProgram program = ExecProgram::fromCircuit(circuit);
    ASSERT_TRUE(program.pattern().measurementOrder().empty());
    const SimKernelConfig full{true, false, SvKernel::Auto};
    const SimKernelConfig window{true, true, SvKernel::Auto};
    const ExecResult a =
        runBackend(program, "stabilizer", 64, 11, 2, full);
    const ExecResult b =
        runBackend(program, "stabilizer", 64, 11, 2, window);
    EXPECT_EQ(a.counts, b.counts);
    EXPECT_EQ(a.probabilities, b.probabilities);
    EXPECT_EQ(resultBytes(a), resultBytes(b));
}

TEST(LossKernels, ThresholdDrawEqualsBernoulliDrawByDraw)
{
    // Edge probabilities, then random ones across many magnitudes.
    std::vector<double> probabilities = {
        0.0, 1.0, 0x1.0p-53, std::numeric_limits<double>::denorm_min(),
        std::nextafter(1.0, 0.0), 0.5, 0x1.0p-52 + 0x1.0p-60};
    Rng picker(17);
    for (int i = 0; i < 64; ++i)
        probabilities.push_back(picker.uniform() *
                                std::ldexp(1.0, -(i % 16) * 4));

    // Two copies of one stream, each draw with the next probability.
    Rng bernoulli(99);
    Rng raw(99);
    for (int draw = 0; draw < 200000; ++draw) {
        const double p = probabilities[draw % probabilities.size()];
        ASSERT_EQ(bernoulli.bernoulli(p),
                  (raw.next() >> 11) < loss::drawThreshold(p))
            << "draw " << draw << ", p " << p;
    }

    // Random draws never land next to a threshold, so check the
    // identity there directly: x * 2^-53 < p iff x < t.
    for (const double p : probabilities) {
        const std::uint64_t t = loss::drawThreshold(p);
        for (std::int64_t dx = -3; dx <= 3; ++dx) {
            const std::int64_t x = static_cast<std::int64_t>(t) + dx;
            if (x < 0 || x >= (std::int64_t(1) << 53))
                continue;
            EXPECT_EQ(x * 0x1.0p-53 < p,
                      static_cast<std::uint64_t>(x) < t)
                << "p " << p << ", x " << x;
        }
    }
}

TEST(LossKernels, Avx2KernelMatchesPortableOnFullBlocks)
{
#if defined(__x86_64__) || defined(_M_X64)
    if (!sv::cpuHasAvx2())
        GTEST_SKIP() << "CPU lacks AVX2; dispatch covers this case";
    Rng rng(7);
    for (const std::int64_t seed : {0, 1, 9, 123456789}) {
        for (const int first_shot : {0, 16, 17, 1000, 2147483647 - 15}) {
            // Random thresholds, with certain loss and certain
            // survival mixed in.
            std::vector<std::uint64_t> thresholds(rng.uniformInt(2000));
            for (auto &t : thresholds) {
                switch (rng.uniformInt(4)) {
                  case 0: t = 0; break;
                  case 1: t = std::uint64_t(1) << 53; break;
                  default: t = loss::drawThreshold(rng.uniform()); break;
                }
            }
            SCOPED_TRACE("seed " + std::to_string(seed) + ", first shot " +
                         std::to_string(first_shot) + ", " +
                         std::to_string(thresholds.size()) + " draws");
            std::int64_t portable[loss::kBlockShots];
            std::int64_t vectorized[loss::kBlockShots];
            loss::countLostPortable(thresholds.data(), thresholds.size(),
                                    seed, first_shot, loss::kBlockShots,
                                    portable);
            loss::countLostAvx2(thresholds.data(), thresholds.size(),
                                seed, first_shot, vectorized);
            for (int lane = 0; lane < loss::kBlockShots; ++lane)
                EXPECT_EQ(portable[lane], vectorized[lane])
                    << "lane " << lane;
        }
    }
#else
    GTEST_SKIP() << "non-x86 build has no AVX2 kernel";
#endif
}

TEST(SimKernels, ResetRestoresTheFastStackDefaults)
{
    // One binary runs both sides of the equivalence; tests select
    // the oracles per process and resetSimKernelConfig restores the
    // fast stack.
    simKernelConfig() = {false, false, SvKernel::Portable};
    resetSimKernelConfig();
    const SimKernelConfig &config = simKernelConfig();
    EXPECT_TRUE(config.packedTableau);
    EXPECT_TRUE(config.liveWindow);
    EXPECT_EQ(config.svKernel, SvKernel::Auto);
}

} // namespace
} // namespace dcmbqc

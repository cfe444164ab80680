/**
 * @file
 * The scalar Aaronson-Gottesman tableau — one Pauli per byte — kept
 * alive as the reference oracle for the bit-packed StabilizerSim in
 * sim/stabilizer.hh. The equivalence suite
 * (tests/test_sim_kernels.cc) asserts both implementations produce
 * bit-identical outcomes, deterministic/random verdicts, and
 * isStabilizer/anticommutes answers; the execution backends run this
 * class when a test or bench turns simKernelConfig().packedTableau
 * off.
 */

#ifndef DCMBQC_SIM_STABILIZER_REFERENCE_HH
#define DCMBQC_SIM_STABILIZER_REFERENCE_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "graph/graph.hh"
#include "sim/stabilizer.hh"

namespace dcmbqc
{

/**
 * Scalar stabilizer state on n qubits, initialized to |0...0>.
 * API-compatible with the packed StabilizerSim so backend shot loops
 * can be instantiated against either.
 */
class ScalarStabilizerSim
{
  public:
    explicit ScalarStabilizerSim(int num_qubits);

    int numQubits() const { return n_; }

    void applyH(int q);
    void applyS(int q);
    void applySdg(int q);
    void applyX(int q);
    void applyZ(int q);
    void applyCNOT(int control, int target);
    void applyCZ(int a, int b);

    /** Measure qubit q in the Z basis. */
    StabMeasureResult measureZ(int q, Rng &rng);

    /** Measure qubit q in the X basis (H conjugation). */
    StabMeasureResult measureX(int q, Rng &rng);

    /**
     * Measure qubit q in Z forcing the outcome when it is random
     * (no RNG consumed); a deterministic measurement ignores
     * `forced_outcome`. measureZ draws the outcome and calls this.
     */
    StabMeasureResult measureZWithOutcome(int q, int forced_outcome);

    /**
     * True when measuring qubit q in Z would be random (some
     * stabilizer generator anticommutes with Z_q). Non-destructive.
     */
    bool zMeasurementIsRandom(int q) const;

    /**
     * Check whether the signed Pauli operator stabilizes the state
     * (P|psi> = +|psi>, including the sign in `p`).
     */
    bool isStabilizer(const PauliString &p) const;

    /** Symplectic product of row i with an external Pauli. */
    int anticommutes(int row, const PauliString &p) const;

    /**
     * Prepare a graph state on this register: H on every qubit of
     * the graph, then CZ per edge. The register must have at least
     * g.numNodes() qubits and be freshly |0...0>.
     */
    void prepareGraphState(const Graph &g);

  private:
    // Tableau rows 0..n-1: destabilizers; n..2n-1: stabilizers;
    // row 2n: scratch. Bits stored per qubit (uint8 for clarity).
    int n_;
    std::vector<std::vector<std::uint8_t>> x_;
    std::vector<std::vector<std::uint8_t>> z_;
    std::vector<std::uint8_t> r_; ///< phase bit per row (1 = minus)

    /** AG rowsum: row h *= row i with phase tracking. */
    void rowsum(int h, int i);

    /** Phase-exponent contribution g(x1,z1,x2,z2) from AG. */
    static int phaseG(int x1, int z1, int x2, int z2);
};

} // namespace dcmbqc

#endif // DCMBQC_SIM_STABILIZER_REFERENCE_HH

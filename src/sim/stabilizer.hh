/**
 * @file
 * Aaronson-Gottesman stabilizer tableau simulator, bit-packed 64
 * qubit columns per `uint64_t` word so row multiplication,
 * anticommutation tests, and phase tracking run word-wide
 * (XOR/AND/popcount) instead of per-Pauli. Scales to thousands of
 * qubits for Clifford circuits; the tests use it to verify
 * graph-state stabilizers K_i = X_i prod_{j in N(i)} Z_j
 * (Section II-A) and the removee property (a Z-basis measurement
 * detaches a node from the graph state up to Z byproducts on its
 * neighbors, Section II-B).
 *
 * The pre-packing scalar implementation survives as
 * `ScalarStabilizerSim` (sim/stabilizer_reference.hh), the oracle
 * the equivalence suite pins this class against bit-for-bit.
 */

#ifndef DCMBQC_SIM_STABILIZER_HH
#define DCMBQC_SIM_STABILIZER_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "graph/graph.hh"

namespace dcmbqc
{

/** A Pauli operator on n qubits with a +/- sign. */
struct PauliString
{
    /** xBits[q] / zBits[q]: 1 when the operator has X / Z on q. */
    std::vector<std::uint8_t> xBits;
    std::vector<std::uint8_t> zBits;

    /** True for a leading minus sign. */
    bool negative = false;

    explicit PauliString(int num_qubits)
        : xBits(num_qubits, 0), zBits(num_qubits, 0)
    {
    }

    PauliString &withX(int q) { xBits[q] = 1; return *this; }
    PauliString &withZ(int q) { zBits[q] = 1; return *this; }
    PauliString &withY(int q)
    {
        xBits[q] = 1;
        zBits[q] = 1;
        return *this;
    }
    PauliString &withSign(bool minus) { negative = minus; return *this; }
};

/**
 * Bit-packed view of a PauliString: 64 qubits per word, the layout
 * the packed tableau multiplies against directly. Convert once,
 * query many times.
 */
struct PackedPauli
{
    std::vector<std::uint64_t> xWords;
    std::vector<std::uint64_t> zWords;
    bool negative = false;
    int numQubits = 0;

    PackedPauli() = default;
    explicit PackedPauli(const PauliString &p);
};

/** Result of a Z-basis measurement in the tableau. */
struct StabMeasureResult
{
    int outcome;
    bool deterministic;
};

/**
 * Stabilizer state on n qubits, initialized to |0...0>.
 */
class StabilizerSim
{
  public:
    explicit StabilizerSim(int num_qubits);

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
    bool isStabilizer(const PackedPauli &p) const;

    /** Symplectic product of row i with an external Pauli. */
    int anticommutes(int row, const PauliString &p) const;
    int anticommutes(int row, const PackedPauli &p) const;

    /**
     * Prepare a graph state on this register: H on every qubit of
     * the graph, then CZ per edge. The register must have at least
     * g.numNodes() qubits and be freshly |0...0>.
     */
    void prepareGraphState(const Graph &g);

    /** The canonical graph-state stabilizer K_i of graph g. */
    static PauliString graphStabilizer(const Graph &g, NodeId i);

  private:
    // Tableau rows 0..n-1: destabilizers; n..2n-1: stabilizers;
    // row 2n: scratch. Row r's qubit bits live in words_ per row at
    // x_[r*words_ .. r*words_+words_), qubit q at word q>>6 bit q&63.
    int n_;
    int words_;
    std::vector<std::uint64_t> x_;
    std::vector<std::uint64_t> z_;
    std::vector<std::uint8_t> r_; ///< phase bit per row (1 = minus)

    std::uint64_t *xRow(int row) { return &x_[row * words_]; }
    std::uint64_t *zRow(int row) { return &z_[row * words_]; }
    const std::uint64_t *xRow(int row) const
    {
        return &x_[row * words_];
    }
    const std::uint64_t *zRow(int row) const
    {
        return &z_[row * words_];
    }

    int xBit(int row, int q) const
    {
        return static_cast<int>(
            (xRow(row)[q >> 6] >> (q & 63)) & 1u);
    }
    int zBit(int row, int q) const
    {
        return static_cast<int>(
            (zRow(row)[q >> 6] >> (q & 63)) & 1u);
    }

    /**
     * AG rowsum: row h *= row i with phase tracking, word-wide. The
     * AG phase exponent is accumulated as popcount(plus mask) -
     * popcount(minus mask) per word instead of 64 scalar phaseG
     * evaluations.
     */
    void rowsum(int h, int i);
};

} // namespace dcmbqc

#endif // DCMBQC_SIM_STABILIZER_HH

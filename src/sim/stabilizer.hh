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
 * Each row's sign is an affine GF(2) form: the XOR of a constant bit
 * and a subset of the random outcomes measured so far with
 * measureZAffine (Aaronson-Gottesman, quant-ph/0406196: an outcome
 * only ever flips signs). Until the first such measurement the form
 * is the plain sign bit, and every gate flips its constant bit
 * exactly where the AG update flips the sign.
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
    /**
     * `max_variables` bounds the random outcomes measureZAffine may
     * introduce; sign forms are sized for it.
     */
    explicit StabilizerSim(int num_qubits, int max_variables = 0);

    int numQubits() const { return n_; }

    void applyH(int q);
    void applyS(int q);
    void applySdg(int q);
    void applyX(int q);
    void applyZ(int q);
    void applyCNOT(int control, int target);
    void applyCZ(int a, int b);

    /**
     * Words of a sign form: bit 0 is the constant, bit j the j-th
     * random outcome of measureZAffine.
     */
    int formWords() const { return formWords_; }

    /** Random outcomes measureZAffine has introduced. */
    int numVariables() const { return variables_; }

    /** X^c and Z^c on qubit q for the form c (formWords() words). */
    void applyX(int q, const std::uint64_t *form);
    void applyZ(int q, const std::uint64_t *form);

    /**
     * Measure qubit q in Z without choosing an outcome. A random
     * outcome becomes variable numVariables() + 1 and signs the new
     * Z_q stabilizer; a deterministic one is the form the stabilizer
     * signs add up to. Writes the outcome's form to `form`
     * (formWords() words) and returns true when it was random.
     */
    bool measureZAffine(int q, std::uint64_t *form);

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
    // Its sign form lives at r_[r*formWords_ ..), constant bit 1 =
    // minus; only the first usedFormWords() words can be nonzero.
    int n_;
    int words_;
    int formWords_;
    int variables_ = 0;
    std::vector<std::uint64_t> x_;
    std::vector<std::uint64_t> z_;
    std::vector<std::uint64_t> r_;

    std::uint64_t *sign(int row) { return &r_[row * formWords_]; }
    const std::uint64_t *sign(int row) const
    {
        return &r_[row * formWords_];
    }

    /** Form words the variables so far occupy. */
    int usedFormWords() const { return (variables_ >> 6) + 1; }

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
     * evaluations. Row i's sign form is XORed into row h's, whose
     * constant then flips when the exponent of the Pauli parts is 2
     * or 3 mod 4: AG's rule, as 2(r_h + r_i) = 2(r_h ^ r_i) mod 4.
     */
    void rowsum(int h, int i);

    /**
     * Reduce the tableau for a Z measurement of q. Random: returns
     * the row now holding +Z_q, whose sign the caller sets.
     * Deterministic: returns -1, the outcome's form in the scratch
     * row's sign.
     */
    int measureZRows(int q);

    /** XOR `form` into the sign of every row with `bits` on q. */
    void xorFormWhere(const std::vector<std::uint64_t> &bits, int q,
                      const std::uint64_t *form);
};

} // namespace dcmbqc

#endif // DCMBQC_SIM_STABILIZER_HH

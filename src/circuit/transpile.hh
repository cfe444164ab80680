/**
 * @file
 * Lowering from the gate IR to the {CZ, J(alpha)} basis.
 *
 * J(alpha) = H Rz(alpha) generates all single-qubit unitaries, and
 * together with CZ it is the canonical gate set for building one-way
 * measurement patterns (Section II-A): every J becomes one measured
 * pattern qubit, every CZ becomes one graph-state edge.
 */

#ifndef DCMBQC_CIRCUIT_TRANSPILE_HH
#define DCMBQC_CIRCUIT_TRANSPILE_HH

#include <vector>

#include "circuit/circuit.hh"

namespace dcmbqc
{

/** One primitive operation in the lowered program. */
struct JOp
{
    enum class Kind { J, CZ };

    Kind kind;
    QubitId q0;
    QubitId q1 = -1;    ///< second qubit for CZ
    double angle = 0.0; ///< J rotation angle

    static JOp j(QubitId q, double angle) { return {Kind::J, q, -1, angle}; }
    static JOp cz(QubitId a, QubitId b) { return {Kind::CZ, a, b, 0.0}; }
};

/** A circuit lowered to the {CZ, J} basis. */
struct JCircuit
{
    int numQubits = 0;
    std::vector<JOp> ops;

    std::size_t numJ() const;
    std::size_t numCz() const;
};

/**
 * Lower a circuit to the {CZ, J(alpha)} basis. Exact up to global
 * phase. Multi-qubit gates are first rewritten over
 * {H, RZ, RX, CZ} (CNOT = H CZ H, CP/RZZ via CNOT conjugation,
 * SWAP = 3 CNOT, CCX = 6-CNOT Clifford+T network).
 */
JCircuit transpileToJCz(const Circuit &circuit);

/**
 * Rewrite one gate over the basic set {H, RZ, RX, CZ}.
 * Exposed for unit testing of each decomposition.
 */
std::vector<Gate> lowerGate(const Gate &gate);

/**
 * Append the {CZ, J(alpha)} lowering of one gate to `out`. This is
 * the per-gate kernel `transpileToJCz` folds over a circuit; the
 * pattern builder's Circuit and stream entry points feed gates
 * through the same function, so every entry lowers identically.
 */
void appendGateJOps(const Gate &gate, std::vector<JOp> &out);

} // namespace dcmbqc

#endif // DCMBQC_CIRCUIT_TRANSPILE_HH

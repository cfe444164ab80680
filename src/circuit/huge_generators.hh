/**
 * @file
 * Huge-circuit generator families for the streaming scale harness:
 * surface-code-sized graph states, deep ring QAOA, and random
 * Clifford+T programs, all exposed as `CircuitStream`s whose i-th
 * gate is computed in O(1) from the index — no gate list is ever
 * materialized, so a 10^6-qubit workload costs bytes, not
 * gigabytes, on the input side. Shared by bench/streaming_scale.cc
 * and the streaming tests (which materialize the *small* instances
 * through `CircuitStream::materialize`).
 */

#ifndef DCMBQC_CIRCUIT_HUGE_GENERATORS_HH
#define DCMBQC_CIRCUIT_HUGE_GENERATORS_HH

#include <cstdint>
#include <memory>

#include "circuit/circuit_stream.hh"

namespace dcmbqc
{

/**
 * Cluster / graph state on a rows x cols lattice (the shape of a
 * surface-code patch): H on every qubit, then CZ on every horizontal
 * lattice edge (row-major), then every vertical edge. Qubit (r, c)
 * is r * cols + c; total gates = rows*cols + rows*(cols-1) +
 * (rows-1)*cols.
 */
std::shared_ptr<CircuitStream> makeGraphStateStream(int rows,
                                                    int cols);

/**
 * Deep QAOA Max-Cut on the n-cycle: per layer, RZZ on every ring
 * edge (q, (q+1) mod n) followed by the RX mixer on every qubit.
 * Angles are derived per (seed, layer) so instances differ by seed
 * but every gate is computable from its index alone.
 */
std::shared_ptr<CircuitStream> makeDeepQaoaStream(
    int num_qubits, int layers, std::uint64_t seed = 7);

/**
 * Random Clifford+T stream over {H, S, Sdg, T, Tdg, X, Z, CZ,
 * CNOT}: gate i is drawn from a counter-based hash of (seed, i), so
 * random access is O(1) and two drains are identical. (A distinct
 * family from `makeRandomCliffordTCircuit`, whose sequential RNG
 * cannot be indexed.)
 */
std::shared_ptr<CircuitStream> makeRandomCliffordTStream(
    int num_qubits, std::uint64_t num_gates, std::uint64_t seed = 13);

} // namespace dcmbqc

#endif // DCMBQC_CIRCUIT_HUGE_GENERATORS_HH

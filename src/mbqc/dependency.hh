/**
 * @file
 * Measurement dependency graphs G' = (V, E') of Section II-A.
 *
 * An arc (i, j) means the measurement basis of j depends on the
 * outcome of i. X-dependencies require real-time adaptation;
 * Z-dependencies flip the interpretation of the outcome (a pi offset
 * in the basis) and are removed from the real-time constraints by
 * signal shifting [13].
 */

#ifndef DCMBQC_MBQC_DEPENDENCY_HH
#define DCMBQC_MBQC_DEPENDENCY_HH

#include "graph/digraph.hh"
#include "mbqc/pattern.hh"

namespace dcmbqc
{

/** X- and Z-dependency graphs of a pattern, derived from its flow. */
struct DependencyGraphs
{
    /** i -> j when j's angle sign depends on s_i (X correction). */
    Digraph xDeps;

    /** i -> j when j's angle offset depends on s_i (Z correction). */
    Digraph zDeps;
};

/**
 * Derive both dependency graphs from the causal flow: measuring i
 * places X^{s_i} on f(i) and Z^{s_i} on N(f(i)) \ {i}. Arcs point
 * only to measured nodes (outputs absorb corrections as byproducts).
 */
DependencyGraphs buildDependencyGraphs(const Pattern &pattern);

/**
 * The X (`z_set` false) or Z dependency successors of node m, in the
 * order buildDependencyGraphs() adds m's arcs; empty for an output.
 * Replaces `out`'s contents. Asserts nothing, so the artifact codec
 * can derive the sets it writes and checks.
 */
void dependencySuccessors(const Pattern &pattern, NodeId m, bool z_set,
                          std::vector<NodeId> &out);

/**
 * The quarter turns k in [0, 4) with theta = k*pi/2 within 1e-9
 * quarter turns, or -1 when theta is no multiple of pi/2 (NaN and
 * infinities included). A multiple of pi/2 is a Clifford angle: the
 * measurement is a Pauli measurement, and an X byproduct only flips
 * its sign onto an equivalent basis (outcome relabeling), so no
 * real-time adaptation is needed.
 */
int cliffordQuarterTurns(double theta);

/**
 * The real-time dependency graph: X-dependencies after signal
 * shifting AND Pauli-flow simplification. Z-dependencies are
 * shifted to the end classically [13]; X-dependencies into
 * Clifford-angle (Pauli) measurements are removed, with the
 * dependency transferring through to the next non-Clifford
 * measurement on the wire. Algorithm 1 consumes this graph.
 */
Digraph realTimeDependencyGraph(const Pattern &pattern);

} // namespace dcmbqc

#endif // DCMBQC_MBQC_DEPENDENCY_HH

/**
 * @file
 * Tests for the Aaronson-Gottesman tableau simulator: gate rules
 * cross-checked against the state-vector simulator on random
 * Clifford circuits, graph-state stabilizer verification at scale,
 * and the removee property (Section II-B).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "common/rng.hh"
#include "graph/graph.hh"
#include "sim/stabilizer.hh"
#include "sim/statevector.hh"

namespace dcmbqc
{
namespace
{

TEST(Stabilizer, InitialStateStabilizedByZ)
{
    StabilizerSim sim(3);
    for (int q = 0; q < 3; ++q) {
        PauliString z(3);
        z.withZ(q);
        EXPECT_TRUE(sim.isStabilizer(z));
        PauliString x(3);
        x.withX(q);
        EXPECT_FALSE(sim.isStabilizer(x));
    }
}

TEST(Stabilizer, HadamardMapsZToX)
{
    StabilizerSim sim(1);
    sim.applyH(0);
    PauliString x(1);
    x.withX(0);
    EXPECT_TRUE(sim.isStabilizer(x));
}

TEST(Stabilizer, SignTracking)
{
    // X|0> = |1> is stabilized by -Z.
    StabilizerSim sim(1);
    sim.applyX(0);
    PauliString minus_z(1);
    minus_z.withZ(0).withSign(true);
    EXPECT_TRUE(sim.isStabilizer(minus_z));
    PauliString plus_z(1);
    plus_z.withZ(0);
    EXPECT_FALSE(sim.isStabilizer(plus_z));
}

TEST(Stabilizer, BellPair)
{
    StabilizerSim sim(2);
    sim.applyH(0);
    sim.applyCNOT(0, 1);
    PauliString xx(2);
    xx.withX(0).withX(1);
    PauliString zz(2);
    zz.withZ(0).withZ(1);
    EXPECT_TRUE(sim.isStabilizer(xx));
    EXPECT_TRUE(sim.isStabilizer(zz));
    PauliString yy(2);
    yy.withY(0).withY(1);
    // XX * ZZ = -YY, so -YY stabilizes (equivalently YY with sign).
    yy.withSign(true);
    EXPECT_TRUE(sim.isStabilizer(yy));
}

TEST(Stabilizer, MeasureZDeterministicOnBasisState)
{
    StabilizerSim sim(2);
    sim.applyX(1);
    Rng rng(1);
    const auto r0 = sim.measureZ(0, rng);
    EXPECT_TRUE(r0.deterministic);
    EXPECT_EQ(r0.outcome, 0);
    const auto r1 = sim.measureZ(1, rng);
    EXPECT_TRUE(r1.deterministic);
    EXPECT_EQ(r1.outcome, 1);
}

TEST(Stabilizer, MeasurePlusIsRandomThenFixed)
{
    Rng rng(2);
    int ones = 0;
    for (int i = 0; i < 200; ++i) {
        StabilizerSim sim(1);
        sim.applyH(0);
        const auto r = sim.measureZ(0, rng);
        EXPECT_FALSE(r.deterministic);
        ones += r.outcome;
        // Remeasuring must be deterministic and equal.
        const auto r2 = sim.measureZ(0, rng);
        EXPECT_TRUE(r2.deterministic);
        EXPECT_EQ(r2.outcome, r.outcome);
    }
    EXPECT_GT(ones, 60);
    EXPECT_LT(ones, 140);
}

TEST(Stabilizer, MeasureXBasis)
{
    StabilizerSim sim(1);
    sim.applyH(0); // |+>
    Rng rng(3);
    const auto r = sim.measureX(0, rng);
    EXPECT_TRUE(r.deterministic);
    EXPECT_EQ(r.outcome, 0);
}

/** Ring graph on n nodes. */
Graph
ringGraph(int n)
{
    std::vector<Edge> edges;
    for (NodeId u = 0; u < n; ++u)
        edges.push_back({u, (u + 1) % n});
    return Graph(n, std::move(edges));
}

TEST(Stabilizer, GraphStateStabilizersRing)
{
    const Graph g = ringGraph(8);
    StabilizerSim sim(8);
    sim.prepareGraphState(g);
    for (NodeId i = 0; i < 8; ++i)
        EXPECT_TRUE(
            sim.isStabilizer(StabilizerSim::graphStabilizer(g, i)))
            << "K_" << i;
}

TEST(Stabilizer, GraphStateStabilizersRandomLarge)
{
    Rng rng(5);
    const int n = 64;
    std::vector<Edge> edges;
    std::set<std::pair<NodeId, NodeId>> seen;
    for (int e = 0; e < 150; ++e) {
        NodeId u = static_cast<NodeId>(rng.uniformInt(n));
        NodeId v = static_cast<NodeId>(rng.uniformInt(n));
        if (u != v && seen.insert(std::minmax(u, v)).second)
            edges.push_back({u, v});
    }
    const Graph g(n, std::move(edges));
    StabilizerSim sim(n);
    sim.prepareGraphState(g);
    for (NodeId i = 0; i < n; ++i)
        EXPECT_TRUE(
            sim.isStabilizer(StabilizerSim::graphStabilizer(g, i)));
    // A wrong stabilizer (missing one Z) must be rejected.
    PauliString wrong = StabilizerSim::graphStabilizer(g, 0);
    const NodeId nb = g.adjacency(0)[0].neighbor;
    wrong.zBits[nb] ^= 1;
    EXPECT_FALSE(sim.isStabilizer(wrong));
}

TEST(Stabilizer, RemoveeProperty)
{
    // Z-measuring node v of a graph state leaves |G - v> up to Z
    // byproducts on N(v): K'_j = (-1)^{s [j in N(v)]} X_j prod Z_k.
    const Graph g = ringGraph(6);
    for (int seed = 0; seed < 5; ++seed) {
        StabilizerSim sim(6);
        sim.prepareGraphState(g);
        Rng rng(100 + seed);
        const NodeId v = 2;
        const auto r = sim.measureZ(v, rng);

        for (NodeId j = 0; j < 6; ++j) {
            if (j == v)
                continue;
            PauliString k(6);
            k.withX(j);
            bool v_adjacent = false;
            for (const auto &adj : g.adjacency(j)) {
                if (adj.neighbor == v) {
                    v_adjacent = true;
                    continue; // drop Z on the removed node
                }
                k.withZ(adj.neighbor);
            }
            if (v_adjacent && r.outcome == 1)
                k.withSign(true);
            EXPECT_TRUE(sim.isStabilizer(k))
                << "j=" << j << " seed=" << seed;
        }
    }
}

TEST(Stabilizer, RandomCliffordAgreesWithStateVector)
{
    // Cross-validate measurement outcome determinism/probabilities
    // against the dense simulator on random Clifford circuits.
    for (std::uint64_t seed = 1; seed <= 6; ++seed) {
        Rng gates(seed);
        const int n = 4;
        StabilizerSim tab(n);
        StateVector vec(n);
        for (int i = 0; i < 30; ++i) {
            const int q = static_cast<int>(gates.uniformInt(n));
            int q2 = q;
            while (q2 == q)
                q2 = static_cast<int>(gates.uniformInt(n));
            switch (gates.uniformInt(4)) {
              case 0:
                tab.applyH(q);
                vec.applyH(q);
                break;
              case 1:
                tab.applyS(q);
                vec.applyS(q);
                break;
              case 2:
                tab.applyCNOT(q, q2);
                vec.applyCNOT(q, q2);
                break;
              default:
                tab.applyCZ(q, q2);
                vec.applyCZ(q, q2);
                break;
            }
        }
        // Measure all qubits in Z, forcing the state vector to the
        // tableau's outcome; every forced branch must have the right
        // probability (1.0 when deterministic, 0.5 when random).
        Rng meas(seed * 7);
        for (int q = n - 1; q >= 0; --q) {
            const auto r = tab.measureZ(q, meas);
            const auto v = vec.measureZAndRemove(q, meas, r.outcome);
            EXPECT_NEAR(v.probability, r.deterministic ? 1.0 : 0.5,
                        1e-9);
        }
    }
}

} // namespace
} // namespace dcmbqc

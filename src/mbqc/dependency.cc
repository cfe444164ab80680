#include "mbqc/dependency.hh"

#include <cmath>

#include "common/logging.hh"

namespace dcmbqc
{

DependencyGraphs
buildDependencyGraphs(const Pattern &pattern)
{
    const NodeId n = pattern.numNodes();
    std::vector<Arc> x_arcs, z_arcs;
    std::vector<NodeId> succ;
    for (NodeId m = 0; m < n; ++m) {
        dependencySuccessors(pattern, m, /*z_set=*/false, succ);
        for (NodeId j : succ)
            x_arcs.push_back({m, j});
        dependencySuccessors(pattern, m, /*z_set=*/true, succ);
        for (NodeId j : succ)
            z_arcs.push_back({m, j});
    }

    DependencyGraphs deps{Digraph(n, x_arcs), Digraph(n, z_arcs)};
    DCMBQC_ASSERT(deps.xDeps.isAcyclic(), "X-dependency graph cyclic");
    return deps;
}

void
dependencySuccessors(const Pattern &pattern, NodeId m, bool z_set,
                     std::vector<NodeId> &out)
{
    out.clear();
    if (pattern.isOutput(m))
        return;
    const NodeId succ = pattern.flow(m);
    if (!z_set) {
        // X correction on the flow successor.
        if (!pattern.isOutput(succ))
            out.push_back(succ);
        return;
    }
    // Z corrections on the successor's other neighbors.
    for (const auto &adj : pattern.graph().adjacency(succ)) {
        const NodeId j = adj.neighbor;
        if (j != m && !pattern.isOutput(j))
            out.push_back(j);
    }
}

int
cliffordQuarterTurns(double theta)
{
    constexpr double half_pi = 1.57079632679489661923;
    const double turns = theta / half_pi;
    const double k = std::nearbyint(turns);
    // Written so that NaN (and an infinity, via inf - inf) fails.
    if (!(std::abs(turns - k) < 1e-9))
        return -1;
    return static_cast<int>(std::fmod(k, 4.0) + 4.0) % 4;
}

Digraph
realTimeDependencyGraph(const Pattern &pattern)
{
    // X-dependencies follow the causal flow along each wire. A
    // Clifford-angle node needs no adaptation; its own correction
    // folds classically into how its outcome is interpreted, so the
    // real-time chain links consecutive NON-Clifford measurements of
    // the wire (Pauli flow).
    std::vector<Arc> arcs;
    std::vector<NodeId> last_adaptive(pattern.numWires(), invalidNode);
    for (NodeId m : pattern.measurementOrder()) {
        if (cliffordQuarterTurns(pattern.angle(m)) >= 0)
            continue;
        const QubitId w = pattern.wire(m);
        if (last_adaptive[w] != invalidNode)
            arcs.push_back({last_adaptive[w], m});
        last_adaptive[w] = m;
    }

    Digraph deps(pattern.numNodes(), arcs);
    DCMBQC_ASSERT(deps.isAcyclic(), "real-time deps cyclic");
    return deps;
}

} // namespace dcmbqc

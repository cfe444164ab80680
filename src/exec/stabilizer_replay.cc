#include "exec/stabilizer_replay.hh"

#include <algorithm>
#include <cmath>

namespace dcmbqc
{

namespace
{

constexpr double pi = 3.14159265358979323846;

/** Angle tolerance for the Clifford (multiple of pi/2) test. */
constexpr double kAngleEpsilon = 1e-9;

/**
 * Quarter-turn index k with theta ~= k*pi/2 (k in [0,4)), or -1 when
 * theta is not a multiple of pi/2 within tolerance.
 */
int
quarterTurns(double theta)
{
    const double turns = theta / (pi / 2.0);
    const double k = std::round(turns);
    // Written so that NaN (and an infinity, via inf - inf) fails.
    if (!(std::fabs(turns - k) <= kAngleEpsilon))
        return -1;
    return static_cast<int>(std::fmod(k, 4.0) + 4.0) % 4;
}

} // namespace

Expected<std::vector<int>>
cliffordBaseTurns(const Pattern &pattern, const std::string &backend)
{
    std::vector<int> turns(pattern.numNodes(), 0);
    for (NodeId u = 0; u < pattern.numNodes(); ++u) {
        if (pattern.isOutput(u))
            continue;
        const int k = quarterTurns(pattern.angle(u));
        if (k < 0)
            return Status::failedPrecondition(
                backend + " backend requires a Clifford pattern: "
                "node " + std::to_string(u) + " measures at angle " +
                std::to_string(pattern.angle(u)) +
                ", not a multiple of pi/2");
        turns[u] = k;
    }
    return turns;
}

ReplayPlan
planReplay(const Pattern &pattern, const std::vector<NodeId> &order,
           bool live_window)
{
    const NodeId n = pattern.numNodes();
    const Graph &graph = pattern.graph();
    ReplayPlan plan;
    plan.qubit.assign(n, -1);
    std::vector<int> free_qubits;
    int allocated = 0;
    const auto create = [&](NodeId v) {
        if (plan.qubit[v] >= 0)
            return;
        int q = allocated;
        if (free_qubits.empty()) {
            ++allocated;
        } else {
            q = free_qubits.back();
            free_qubits.pop_back();
        }
        plan.qubit[v] = q;
        plan.prep.emplace_back(q, -1);
        // No neighbour is measured yet: measuring it would have
        // created v.
        for (const auto &adj : graph.adjacency(v))
            if (plan.qubit[adj.neighbor] >= 0)
                plan.prep.emplace_back(q, plan.qubit[adj.neighbor]);
    };
    const auto create_rest = [&] {
        for (NodeId v = 0; v < n; ++v)
            create(v);
    };

    if (!live_window)
        create_rest();
    plan.prepEnd.reserve(order.size() + 1);
    for (const NodeId m : order) {
        create(m);
        for (const auto &adj : graph.adjacency(m))
            create(adj.neighbor);
        plan.prepEnd.push_back(plan.prep.size());
        free_qubits.push_back(plan.qubit[m]);
    }
    create_rest();
    plan.prepEnd.push_back(plan.prep.size());
    plan.width = std::max(allocated, 1);
    return plan;
}

} // namespace dcmbqc

#include "sim/pattern_runner.hh"

#include <algorithm>

#include "common/logging.hh"

namespace dcmbqc
{

namespace
{
constexpr double pi = 3.14159265358979323846;
} // namespace

PatternRunResult
runPattern(const Pattern &pattern, Rng &rng, bool apply_byproducts)
{
    const NodeId n = pattern.numNodes();
    PatternRunResult result;
    result.outcomes.assign(n, -1);

    StateVector state;
    // slot[v] = current simulator qubit index of node v (-1 dead or
    // not yet created). Simulator indices shift down on removal, so
    // we maintain the inverse map as well.
    std::vector<int> slot(n, -1);
    std::vector<NodeId> slotOwner; // simulator qubit -> node

    std::vector<int> sx(n, 0);
    std::vector<int> sz(n, 0);

    NodeId next_to_create = 0;
    auto ensure_created = [&](NodeId v) {
        while (next_to_create <= v) {
            const NodeId u = next_to_create++;
            // Entangle with earlier, still-alive neighbors as the
            // qubit is created; a repeated edge cancels, as two CZs do.
            std::size_t cz_mask = 0;
            for (const auto &adj : pattern.graph().adjacency(u)) {
                if (adj.neighbor < u) {
                    DCMBQC_ASSERT(slot[adj.neighbor] >= 0,
                                  "edge to dead node ", adj.neighbor);
                    cz_mask ^= static_cast<std::size_t>(1)
                        << slot[adj.neighbor];
                }
            }
            slot[u] = state.addQubitPlus(cz_mask);
            slotOwner.push_back(u);
            result.peakWidth =
                std::max(result.peakWidth, state.numQubits());
        }
    };

    auto remove_slot = [&](NodeId v) {
        const int freed = slot[v];
        slot[v] = -1;
        // Higher simulator qubits shift down by one.
        slotOwner.erase(slotOwner.begin() + freed);
        for (std::size_t q = freed; q < slotOwner.size(); ++q)
            slot[slotOwner[q]] = static_cast<int>(q);
    };

    for (NodeId m : pattern.measurementOrder()) {
        const NodeId succ = pattern.flow(m);
        ensure_created(succ);
        DCMBQC_ASSERT(slot[m] >= 0, "measuring dead node ", m);

        const double adapted =
            (sx[m] ? -1.0 : 1.0) * pattern.angle(m) +
            (sz[m] ? pi : 0.0);
        const auto mr =
            state.measureXYAndRemove(slot[m], adapted, rng);
        result.outcomes[m] = mr.outcome;
        remove_slot(m);

        if (mr.outcome) {
            // Flow corrections: X on f(m), Z on N(f(m)) \ {m}.
            sx[succ] ^= 1;
            for (const auto &adj : pattern.graph().adjacency(succ))
                if (adj.neighbor != m)
                    sz[adj.neighbor] ^= 1;
        }
    }

    // All remaining alive nodes are outputs; reorder to wire order.
    ensure_created(n - 1);
    const auto &outputs = pattern.outputs();
    std::vector<int> order(outputs.size());
    for (std::size_t w = 0; w < outputs.size(); ++w) {
        DCMBQC_ASSERT(slot[outputs[w]] >= 0, "output not alive");
        order[w] = slot[outputs[w]];
    }
    DCMBQC_ASSERT(state.numQubits() ==
                      static_cast<int>(outputs.size()),
                  "non-output nodes still alive");

    result.outputXParity.resize(outputs.size());
    result.outputZParity.resize(outputs.size());
    for (std::size_t w = 0; w < outputs.size(); ++w) {
        result.outputXParity[w] = sx[outputs[w]];
        result.outputZParity[w] = sz[outputs[w]];
    }

    if (apply_byproducts) {
        // Undo X^{sx} Z^{sz} (order irrelevant up to global phase).
        for (std::size_t w = 0; w < outputs.size(); ++w) {
            if (result.outputZParity[w])
                state.applyZ(slot[outputs[w]]);
            if (result.outputXParity[w])
                state.applyX(slot[outputs[w]]);
        }
    }

    result.outputState = state.permuted(order);
    return result;
}

} // namespace dcmbqc

#include "compiler/single_qpu.hh"

#include <algorithm>
#include <deque>
#include <string>

#include "common/logging.hh"
#include "compiler/placer.hh"

namespace dcmbqc
{

SingleQpuCompiler::SingleQpuCompiler(SingleQpuConfig config)
    : config_(std::move(config))
{
    DCMBQC_ASSERT(config_.grid.usableSize() >= 2,
                  "grid too small to compile onto");
}

/**
 * Greedy layer packing with fusion deferral.
 *
 * Nodes are placed in a dependency-consistent order; a layer closes
 * when its computation rows are full. Same-layer edges are realized
 * by intra-layer routing chains; when the current layer's routing
 * resources are exhausted, the fusion is deferred: both photons wait
 * in delay lines and the chain is built from the next layer's fresh
 * resource states (processed before new placements, FIFO).
 * Cross-layer edges are delay-line fusions (Figure 5a) and consume
 * no grid cells.
 */
Expected<LocalSchedule>
SingleQpuCompiler::compile(const Graph &g, const Digraph &deps) const
{
    LocalSchedule schedule;
    schedule.grid = config_.grid;
    schedule.nodeLayer.assign(g.numNodes(), invalidLayer);
    if (g.numNodes() == 0)
        return schedule;

    const auto order = placementOrder(g, deps, config_.order);

    LayerGrid grid(config_.grid);
    // Super-cell of every placed node (positions persist; delay-line
    // outputs re-enter the grid at the photon's original column).
    std::vector<std::vector<int>> cellsOf(g.numNodes());

    // Fusions that could not be routed on their layer, waiting for
    // fresh routing resources.
    std::deque<std::pair<NodeId, NodeId>> deferred;

    // Photons whose fusion partners are not all placed yet hold
    // their grid column for inter-layer fusion chains, reducing the
    // capacity of subsequent layers.
    std::vector<int> unplaced_neighbors(g.numNodes(), 0);
    for (NodeId u = 0; u < g.numNodes(); ++u)
        unplaced_neighbors[u] = g.degree(u);
    std::vector<char> is_pending(g.numNodes(), 0);
    int pending_photons = 0;

    ExecutionLayer current;

    auto process_deferred = [&]() {
        // Build deferred fusion chains on the fresh layer first.
        const std::size_t batch = deferred.size();
        for (std::size_t i = 0; i < batch; ++i) {
            auto [u, v] = deferred.front();
            deferred.pop_front();
            grid.beginTxn();
            const auto hops = grid.route(cellsOf[u], cellsOf[v]);
            if (hops) {
                grid.commitTxn();
                schedule.routingFusions += *hops;
            } else {
                grid.abortTxn();
                deferred.emplace_back(u, v); // retry next layer
            }
        }
    };

    auto close_layer = [&]() {
        current.computeCells = grid.computeCells();
        current.routingCells = grid.routingCells();
        schedule.layers.push_back(std::move(current));
        current = ExecutionLayer();
        grid.clear();
        grid.setReservedCompute(pending_photons);
        process_deferred();
    };

    const LayerId total = static_cast<LayerId>(order.size());
    LayerId placed = 0;
    std::size_t idx = 0;
    process_deferred(); // no-op on the first, empty layer
    while (placed < total) {
        const NodeId u = order[idx];
        const int degree = g.degree(u);

        grid.beginTxn();
        auto super = grid.placeNode(std::max(degree, 1));
        if (!super) {
            grid.abortTxn();
            // A layer may be consumed by deferred routing before any
            // node lands on it; only a failure on a completely fresh
            // layer (no nodes, no routing) is unrecoverable.
            if (current.nodes.empty() && grid.computeCells() == 0 &&
                grid.routingCells() == 0) {
                const std::string side = std::to_string(grid.size());
                return Status::invalidArgument(
                    "node " + std::to_string(u) + " of degree " +
                    std::to_string(degree) + " does not fit on an empty " +
                    side + "x" + side + " layer");
            }
            close_layer();
            continue;
        }
        grid.commitTxn();

        const LayerId layer =
            static_cast<LayerId>(schedule.layers.size());
        cellsOf[u] = std::move(*super);
        schedule.nodeLayer[u] = layer;
        current.nodes.push_back(u);

        // Realize same-layer edges by intra-layer routing; defer the
        // fusion to the next layer when routing resources ran out.
        for (const auto &adj : g.adjacency(u)) {
            const NodeId v = adj.neighbor;
            if (schedule.nodeLayer[v] != layer || v == u)
                continue;
            grid.beginTxn();
            const auto hops = grid.route(cellsOf[u], cellsOf[v]);
            if (hops) {
                grid.commitTxn();
                schedule.routingFusions += *hops;
            } else {
                grid.abortTxn();
                deferred.emplace_back(u, v);
            }
        }

        // Pending-photon bookkeeping: u resolves one wait on each
        // already-placed neighbor and may itself start waiting.
        for (const auto &adj : g.adjacency(u)) {
            const NodeId v = adj.neighbor;
            if (schedule.nodeLayer[v] == invalidLayer)
                continue;
            --unplaced_neighbors[u];
            if (--unplaced_neighbors[v] == 0 && is_pending[v]) {
                is_pending[v] = 0;
                --pending_photons;
            }
        }
        if (unplaced_neighbors[u] > 0) {
            is_pending[u] = 1;
            ++pending_photons;
        }

        ++placed;
        ++idx;
    }
    if (!current.nodes.empty())
        close_layer();

    // Drain any fusions still deferred past the last layer: each
    // batch consumes one more execution layer of routing resources.
    int guard = 0;
    while (!deferred.empty()) {
        DCMBQC_ASSERT(++guard <= static_cast<int>(g.numEdges()) + 8,
                      "deferred fusions failed to drain");
        current = ExecutionLayer();
        close_layer();
    }
    // Capture the routing cells of the last deferred batch (routed
    // after the final push) as one more routing-only layer.
    if (grid.routingCells() > 0) {
        current = ExecutionLayer();
        close_layer();
    }

    schedule.edgeFusions = g.numEdges();
    return schedule;
}

} // namespace dcmbqc

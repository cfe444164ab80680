#include "partition/multilevel.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"
#include "common/rng.hh"
#include "graph/matching.hh"

namespace dcmbqc
{

namespace
{

/** One level of the coarsening hierarchy. */
struct CoarseLevel
{
    Graph graph;
    /** Map from this level's nodes to the next-coarser level. */
    std::vector<NodeId> toCoarse;
};

/**
 * Contract a graph along a matching (`match[u]` = partner of u, or u
 * itself when unmatched). Coarse ids follow fine-node order.
 */
Graph
contract(const Graph &g, const std::vector<NodeId> &match,
         std::vector<NodeId> &to_coarse)
{
    const NodeId n = g.numNodes();
    to_coarse.assign(n, invalidNode);
    NodeId next = 0;
    for (NodeId u = 0; u < n; ++u) {
        if (to_coarse[u] != invalidNode)
            continue;
        const NodeId partner = match[u];
        to_coarse[u] = next;
        if (partner != u)
            to_coarse[partner] = next;
        ++next;
    }

    Graph coarse(next);
    std::vector<int> weights(next, 0);
    for (NodeId u = 0; u < n; ++u)
        weights[to_coarse[u]] += g.nodeWeight(u);
    for (NodeId cu = 0; cu < next; ++cu)
        coarse.setNodeWeight(cu, weights[cu]);

    for (const auto &e : g.edges()) {
        const NodeId cu = to_coarse[e.u];
        const NodeId cv = to_coarse[e.v];
        if (cu != cv)
            coarse.addEdge(cu, cv, e.weight, /*merge_parallel=*/true);
    }
    return coarse;
}

/**
 * Greedy graph-growing initial partition of the coarsest graph.
 * Grows k regions by BFS from random seeds, then assigns leftovers
 * to the lightest part among their neighbors.
 */
Partitioning
initialPartition(const Graph &g, int k, long long max_part_weight,
                 Rng &rng)
{
    const NodeId n = g.numNodes();
    std::vector<int> assign(n, -1);
    std::vector<long long> part_weight(k, 0);

    std::vector<NodeId> seeds(n);
    std::iota(seeds.begin(), seeds.end(), 0);
    rng.shuffle(seeds);

    std::size_t seed_cursor = 0;
    std::vector<NodeId> queue;
    for (int p = 0; p < k; ++p) {
        // Find an unassigned seed.
        while (seed_cursor < seeds.size() && assign[seeds[seed_cursor]] >= 0)
            ++seed_cursor;
        if (seed_cursor >= seeds.size())
            break;
        const NodeId start = seeds[seed_cursor];
        queue.clear();
        queue.push_back(start);
        assign[start] = p;
        part_weight[p] += g.nodeWeight(start);
        std::size_t head = 0;
        while (head < queue.size() && part_weight[p] < max_part_weight) {
            NodeId u = queue[head++];
            for (const auto &adj : g.adjacency(u)) {
                const NodeId v = adj.neighbor;
                if (assign[v] >= 0)
                    continue;
                if (part_weight[p] + g.nodeWeight(v) > max_part_weight)
                    continue;
                assign[v] = p;
                part_weight[p] += g.nodeWeight(v);
                queue.push_back(v);
            }
        }
    }

    // Leftovers: prefer the lightest neighboring part, else the
    // globally lightest part.
    for (NodeId u = 0; u < n; ++u) {
        if (assign[u] >= 0)
            continue;
        int best_part = -1;
        for (const auto &adj : g.adjacency(u)) {
            const int p = assign[adj.neighbor];
            if (p >= 0 && (best_part < 0 ||
                           part_weight[p] < part_weight[best_part])) {
                best_part = p;
            }
        }
        if (best_part < 0) {
            best_part = static_cast<int>(
                std::min_element(part_weight.begin(), part_weight.end()) -
                part_weight.begin());
        }
        assign[u] = best_part;
        part_weight[best_part] += g.nodeWeight(u);
    }

    return Partitioning(std::move(assign), k);
}

/**
 * Force every part below max_part_weight by moving nodes out of
 * overweight parts (cheapest cut penalty first), even at negative
 * gain. Needed because greedy initial partitioning can overfill the
 * part that absorbs leftovers.
 */
void
rebalancePass(const Graph &g, Partitioning &p, long long max_part_weight)
{
    const int k = p.numParts();
    auto part_weight = p.partWeights(g);

    for (int from = 0; from < k; ++from) {
        int guard = g.numNodes() + 1;
        while (part_weight[from] > max_part_weight && guard-- > 0) {
            // Pick the node of `from` whose move is cheapest.
            NodeId best_node = invalidNode;
            int best_part = -1;
            long long best_penalty = 0;
            for (NodeId u = 0; u < g.numNodes(); ++u) {
                if (p.part(u) != from)
                    continue;
                std::vector<long long> conn(k, 0);
                for (const auto &adj : g.adjacency(u))
                    conn[p.part(adj.neighbor)] += adj.weight;
                for (int q = 0; q < k; ++q) {
                    if (q == from)
                        continue;
                    if (part_weight[q] + g.nodeWeight(u) >
                        max_part_weight)
                        continue;
                    const long long penalty = conn[from] - conn[q];
                    if (best_node == invalidNode ||
                        penalty < best_penalty) {
                        best_node = u;
                        best_part = q;
                        best_penalty = penalty;
                    }
                }
            }
            if (best_node == invalidNode)
                break; // every other part is full; give up
            p.setPart(best_node, best_part);
            part_weight[from] -= g.nodeWeight(best_node);
            part_weight[best_part] += g.nodeWeight(best_node);
        }
    }
}

} // namespace

long long
refineBoundaryPass(const Graph &g, Partitioning &p,
                   long long max_part_weight)
{
    const int k = p.numParts();
    auto part_weight = p.partWeights(g);
    long long total_gain = 0;

    // Per-node connectivity to each part, computed lazily.
    std::vector<long long> conn(k, 0);

    for (NodeId u = 0; u < g.numNodes(); ++u) {
        const int from = p.part(u);
        bool boundary = false;
        std::fill(conn.begin(), conn.end(), 0);
        for (const auto &adj : g.adjacency(u)) {
            const int q = p.part(adj.neighbor);
            conn[q] += adj.weight;
            if (q != from)
                boundary = true;
        }
        if (!boundary)
            continue;

        int best_part = from;
        long long best_gain = 0;
        for (int q = 0; q < k; ++q) {
            if (q == from)
                continue;
            if (part_weight[q] + g.nodeWeight(u) > max_part_weight)
                continue;
            const long long gain = conn[q] - conn[from];
            if (gain > best_gain ||
                (gain == best_gain && gain > 0 &&
                 part_weight[q] < part_weight[best_part])) {
                best_gain = gain;
                best_part = q;
            }
        }
        if (best_part != from && best_gain > 0) {
            p.setPart(u, best_part);
            part_weight[from] -= g.nodeWeight(u);
            part_weight[best_part] += g.nodeWeight(u);
            total_gain += best_gain;
        }
    }
    return total_gain;
}

MultilevelPartitioner::MultilevelPartitioner(MultilevelConfig config)
    : config_(std::move(config))
{
    DCMBQC_ASSERT(config_.k >= 1, "k must be positive");
    DCMBQC_ASSERT(config_.alpha >= 1.0, "alpha must be >= 1");
}

Partitioning
MultilevelPartitioner::partition(const Graph &g) const
{
    const int k = config_.k;
    if (k == 1 || g.numNodes() == 0)
        return Partitioning(g.numNodes(), std::max(k, 1));

    Rng rng(config_.seed);

    const long long total = g.totalNodeWeight();
    int max_node_weight = 1;
    for (NodeId u = 0; u < g.numNodes(); ++u)
        max_node_weight = std::max(max_node_weight, g.nodeWeight(u));
    // Allow one max-weight node of slack so a feasible partition
    // always exists even for alpha = 1.
    const long long max_part_weight = std::max<long long>(
        static_cast<long long>(std::ceil(
            config_.alpha * static_cast<double>(total) /
            static_cast<double>(k))) + max_node_weight,
        max_node_weight);

    // --- Coarsening phase ------------------------------------------------
    std::vector<CoarseLevel> levels;
    levels.push_back({g, {}});
    const NodeId coarsen_target = std::max<NodeId>(
        static_cast<NodeId>(config_.coarsenTargetPerPart) * k, 2 * k);

    while (levels.back().graph.numNodes() > coarsen_target) {
        const Graph &current = levels.back().graph;
        std::vector<NodeId> match;
        heavyEdgeMatching(current, rng, match);
        std::vector<NodeId> to_coarse;
        Graph coarse = contract(current, match, to_coarse);
        if (coarse.numNodes() >=
            static_cast<NodeId>(0.95 * current.numNodes())) {
            break; // matching stagnated (e.g., star graphs)
        }
        levels.back().toCoarse = std::move(to_coarse);
        levels.push_back({std::move(coarse), {}});
    }

    // --- Initial partition on the coarsest graph -------------------------
    Partitioning part =
        initialPartition(levels.back().graph, k, max_part_weight, rng);
    rebalancePass(levels.back().graph, part, max_part_weight);
    for (int pass = 0; pass < config_.refinePasses; ++pass)
        if (refineBoundaryPass(levels.back().graph, part,
                               max_part_weight) == 0)
            break;

    // --- Uncoarsening with refinement -------------------------------------
    for (std::size_t level = levels.size() - 1; level-- > 0;) {
        const auto &fine = levels[level];
        std::vector<int> fine_assign(fine.graph.numNodes());
        for (NodeId u = 0; u < fine.graph.numNodes(); ++u)
            fine_assign[u] = part.part(fine.toCoarse[u]);
        part = Partitioning(std::move(fine_assign), k);
        rebalancePass(fine.graph, part, max_part_weight);
        for (int pass = 0; pass < config_.refinePasses; ++pass)
            if (refineBoundaryPass(fine.graph, part, max_part_weight) == 0)
                break;
    }

    // --- Sequential-slab candidate ----------------------------------------
    // MBQC computation graphs are temporally local (node ids follow
    // circuit time), so contiguous slabs cut few edges. The cut
    // boundaries snap to low-flux positions (e.g. gate-block
    // boundaries) within the balance window.
    if (config_.useSequentialCandidate && g.numNodes() > k) {
        const NodeId n = g.numNodes();
        // flux[p] = weight of edges crossing between ids p-1 and p.
        std::vector<long long> flux(n + 1, 0);
        for (const auto &e : g.edges()) {
            const NodeId lo = std::min(e.u, e.v);
            const NodeId hi = std::max(e.u, e.v);
            flux[lo + 1] += e.weight;
            flux[hi + 1] -= e.weight;
        }
        for (NodeId p = 1; p <= n; ++p)
            flux[p] += flux[p - 1];

        std::vector<long long> prefix_weight(n + 1, 0);
        for (NodeId u = 0; u < n; ++u)
            prefix_weight[u + 1] = prefix_weight[u] + g.nodeWeight(u);

        // Greedy left-to-right: place boundary b in the window that
        // keeps every part (including the remaining suffix) within
        // max_part_weight, at the flux minimum.
        std::vector<NodeId> cuts;
        NodeId prev = 0;
        bool feasible = true;
        for (int b = 1; b < k && feasible; ++b) {
            // Window on prefix weight: the finished parts must not
            // exceed the cap, and the remaining suffix must fit into
            // the remaining parts.
            const long long hi_weight =
                prefix_weight[prev] + max_part_weight;
            const long long lo_weight =
                total - static_cast<long long>(k - b) * max_part_weight;
            NodeId best = invalidNode;
            for (NodeId p = prev + 1; p < n; ++p) {
                if (prefix_weight[p] > hi_weight)
                    break;
                if (prefix_weight[p] < lo_weight)
                    continue;
                if (best == invalidNode || flux[p] < flux[best])
                    best = p;
            }
            if (best == invalidNode) {
                feasible = false;
                break;
            }
            cuts.push_back(best);
            prev = best;
        }

        if (feasible) {
            std::vector<int> slab(n, k - 1);
            NodeId start = 0;
            for (int b = 0; b < static_cast<int>(cuts.size()); ++b) {
                for (NodeId u = start; u < cuts[b]; ++u)
                    slab[u] = b;
                start = cuts[b];
            }
            Partitioning slab_part(std::move(slab), k);
            for (int pass = 0; pass < config_.refinePasses; ++pass)
                if (refineBoundaryPass(g, slab_part,
                                       max_part_weight) == 0)
                    break;
            if (slab_part.cutWeight(g) < part.cutWeight(g))
                part = std::move(slab_part);
        }
    }

    return part;
}

} // namespace dcmbqc

#include "partition/multilevel.hh"

#include <algorithm>
#include <cmath>
#include <numeric>

#include "common/logging.hh"

namespace dcmbqc
{

namespace
{

/**
 * Slab candidates kept per search. Algorithm 2 walks alpha up and
 * down a short ladder, so a few caps recur; the bound keeps a long
 * walk on a huge graph from holding one assignment per probe.
 */
constexpr std::size_t kMaxSlabs = 8;

/** part_weight[p] = node weight assigned to part p. */
void
partWeights(const Graph &g, const std::vector<int> &assign,
            std::vector<long long> &part_weight)
{
    std::fill(part_weight.begin(), part_weight.end(), 0);
    for (NodeId u = 0; u < g.numNodes(); ++u)
        part_weight[assign[u]] += g.nodeWeight(u);
}

long long
cutWeight(const Graph &g, const std::vector<int> &assign)
{
    long long cut = 0;
    for (const Edge &e : g.edges())
        if (assign[e.u] != assign[e.v])
            cut += e.weight;
    return cut;
}

/**
 * Greedy graph-growing initial partition of the coarsest graph.
 * Grows k regions by BFS from random seeds, then assigns leftovers
 * to the lightest part among their neighbors.
 */
void
initialPartition(const Graph &g, long long max_part_weight,
                 Rng &rng, std::vector<NodeId> &seeds,
                 std::vector<NodeId> &queue, std::vector<int> &assign,
                 std::vector<long long> &part_weight)
{
    const NodeId n = g.numNodes();
    const int k = static_cast<int>(part_weight.size());
    assign.assign(n, -1);
    std::fill(part_weight.begin(), part_weight.end(), 0);

    seeds.resize(n);
    std::iota(seeds.begin(), seeds.end(), 0);
    rng.shuffle(seeds);

    std::size_t seed_cursor = 0;
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
            const NodeId u = queue[head++];
            for (const Adjacency &arc : g.adjacency(u)) {
                const NodeId v = arc.neighbor;
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
        for (const Adjacency &arc : g.adjacency(u)) {
            const int p = assign[arc.neighbor];
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
}

/**
 * Force every part below max_part_weight by moving nodes out of
 * overweight parts (cheapest cut penalty first), even at negative
 * gain. Needed because greedy initial partitioning can overfill the
 * part that absorbs leftovers. `conn` is k-sized scratch.
 */
void
rebalance(const Graph &g, std::vector<int> &assign,
          std::vector<long long> &part_weight,
          std::vector<long long> &conn, long long max_part_weight)
{
    const NodeId n = g.numNodes();
    const int k = static_cast<int>(part_weight.size());

    for (int from = 0; from < k; ++from) {
        int guard = n + 1;
        while (part_weight[from] > max_part_weight && guard-- > 0) {
            // Pick the node of `from` whose move is cheapest.
            NodeId best_node = invalidNode;
            int best_part = -1;
            long long best_penalty = 0;
            for (NodeId u = 0; u < n; ++u) {
                if (assign[u] != from)
                    continue;
                std::fill(conn.begin(), conn.end(), 0);
                for (const Adjacency &arc : g.adjacency(u))
                    conn[assign[arc.neighbor]] += arc.weight;
                for (int q = 0; q < k; ++q) {
                    if (q == from)
                        continue;
                    if (part_weight[q] + g.nodeWeight(u) > max_part_weight)
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
            assign[best_node] = best_part;
            part_weight[from] -= g.nodeWeight(best_node);
            part_weight[best_part] += g.nodeWeight(best_node);
        }
    }
}

/**
 * One FM-style boundary refinement sweep over `assign`, keeping
 * `part_weight` current. `conn` is k-sized scratch.
 *
 * @return Total cut-weight improvement achieved by the sweep.
 */
long long
refineSweep(const Graph &g, std::vector<int> &assign,
            std::vector<long long> &part_weight,
            std::vector<long long> &conn, long long max_part_weight)
{
    const int k = static_cast<int>(part_weight.size());
    long long total_gain = 0;

    for (NodeId u = 0; u < g.numNodes(); ++u) {
        const int from = assign[u];
        const Graph::Arcs arcs = g.adjacency(u);
        if (std::all_of(arcs.begin(), arcs.end(),
                        [&](const Adjacency &arc) {
                            return assign[arc.neighbor] == from;
                        }))
            continue; // not a boundary node
        std::fill(conn.begin(), conn.end(), 0);
        for (const Adjacency &arc : arcs)
            conn[assign[arc.neighbor]] += arc.weight;

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
            assign[u] = best_part;
            part_weight[from] -= g.nodeWeight(u);
            part_weight[best_part] += g.nodeWeight(u);
            total_gain += best_gain;
        }
    }
    return total_gain;
}

/** Up to `passes` refinement sweeps, stopping at the first no-gain. */
void
refine(const Graph &g, std::vector<int> &assign,
       std::vector<long long> &part_weight, std::vector<long long> &conn,
       long long max_part_weight, int passes)
{
    for (int pass = 0; pass < passes; ++pass)
        if (refineSweep(g, assign, part_weight, conn, max_part_weight) == 0)
            break;
}

} // namespace

int
heavyEdgeMatching(const Graph &g, Rng &rng, std::vector<NodeId> &match,
                  std::vector<NodeId> &visit_order)
{
    const NodeId n = g.numNodes();
    match.assign(n, invalidNode);
    visit_order.resize(n);
    std::iota(visit_order.begin(), visit_order.end(), 0);
    rng.shuffle(visit_order);

    int pairs = 0;
    for (const NodeId u : visit_order) {
        if (match[u] != invalidNode)
            continue;
        NodeId best = invalidNode;
        int best_weight = -1;
        int best_combined = 0;
        for (const Adjacency &arc : g.adjacency(u)) {
            if (match[arc.neighbor] != invalidNode)
                continue;
            const int combined = g.nodeWeight(u) + g.nodeWeight(arc.neighbor);
            if (arc.weight > best_weight ||
                (arc.weight == best_weight && combined < best_combined)) {
                best = arc.neighbor;
                best_weight = arc.weight;
                best_combined = combined;
            }
        }
        if (best != invalidNode) {
            match[u] = best;
            match[best] = u;
            ++pairs;
        } else {
            match[u] = u;
        }
    }
    return pairs;
}

MultilevelSearch::MultilevelSearch(const Graph &g)
    : input_(&g), levels_(1), totalWeight_(g.totalNodeWeight())
{
    for (NodeId u = 0; u < g.numNodes(); ++u)
        maxNodeWeight_ = std::max(maxNodeWeight_, g.nodeWeight(u));
}

int
MultilevelSearch::coarsen(NodeId target, Rng &rng)
{
    int depth = 0;
    while (graph(depth).numNodes() > target) {
        // Growing levels_ moves every level: take references after.
        if (levels_.size() < static_cast<std::size_t>(depth) + 2)
            levels_.resize(depth + 2);
        const Graph &fine = graph(depth);
        std::vector<NodeId> &to_coarse = levels_[depth].toCoarse;
        const NodeId n = fine.numNodes();
        heavyEdgeMatching(fine, rng, match_, visitOrder_);

        // Coarse ids follow fine-node order.
        to_coarse.assign(n, invalidNode);
        NodeId next = 0;
        for (NodeId u = 0; u < n; ++u) {
            if (to_coarse[u] != invalidNode)
                continue;
            to_coarse[u] = next;
            if (match_[u] != u)
                to_coarse[match_[u]] = next;
            ++next;
        }
        if (next >= static_cast<NodeId>(0.95 * n))
            break; // matching stagnated (e.g., star graphs)
        levels_[depth + 1].graph = contract(fine, to_coarse, next);
        ++depth;
    }
    return depth;
}

Graph
MultilevelSearch::contract(const Graph &fine,
                           const std::vector<NodeId> &to_coarse,
                           NodeId coarse_nodes)
{
    const int m = static_cast<int>(fine.numEdges());

    std::vector<int> node_weights(coarse_nodes, 0);
    for (NodeId u = 0; u < fine.numNodes(); ++u)
        node_weights[to_coarse[u]] += fine.nodeWeight(u);

    // A coarse edge is the first fine edge, in fine edge order,
    // between two distinct coarse nodes, carrying the summed weight
    // of all of them. Sort those fine edges by smaller coarse
    // endpoint, stably, so each bucket lists its edges in order.
    ends_.resize(m);
    cursor_.assign(coarse_nodes + 1, 0);
    for (int i = 0; i < m; ++i) {
        const Edge &e = fine.edge(i);
        ends_[i] = {to_coarse[e.u], to_coarse[e.v], e.weight};
        if (ends_[i].u != ends_[i].v)
            ++cursor_[std::min(ends_[i].u, ends_[i].v) + 1];
    }
    for (NodeId c = 0; c < coarse_nodes; ++c)
        cursor_[c + 1] += cursor_[c];
    byLow_.resize(cursor_[coarse_nodes]);
    for (int i = 0; i < m; ++i)
        if (ends_[i].u != ends_[i].v)
            byLow_[cursor_[std::min(ends_[i].u, ends_[i].v)]++] = i;

    // In bucket `lo`, the first fine edge to reach `hi` starts the
    // pair (lo, hi); stamp_[hi] == lo marks the pair as started. A
    // later fine edge of the pair adds its weight to the first and
    // is then marked as inside a coarse node.
    stamp_.assign(coarse_nodes, invalidNode);
    pairFirst_.resize(coarse_nodes);
    int pairs = 0;
    for (const int i : byLow_) {
        Edge &e = ends_[i];
        const NodeId lo = std::min(e.u, e.v);
        const NodeId hi = std::max(e.u, e.v);
        if (stamp_[hi] != lo) {
            stamp_[hi] = lo;
            pairFirst_[hi] = i;
            ++pairs;
        } else {
            ends_[pairFirst_[hi]].weight += e.weight;
            e.v = e.u;
        }
    }

    // Coarse edge ids follow the first fine edge of each pair.
    std::vector<Edge> edges;
    edges.reserve(pairs);
    for (const Edge &e : ends_)
        if (e.u != e.v)
            edges.push_back(e);
    return Graph(std::move(node_weights), std::move(edges));
}

const MultilevelSearch::Slab &
MultilevelSearch::slab(int k, int refine_passes, long long max_part_weight)
{
    for (const Slab &s : slabs_)
        if (s.k == k && s.refinePasses == refine_passes &&
            s.maxPartWeight == max_part_weight)
            return s;

    const Graph &g = *input_;
    const NodeId n = g.numNodes();
    if (flux_.empty()) {
        // flux[p] = weight of edges crossing between ids p-1 and p.
        flux_.assign(n + 1, 0);
        for (const Edge &e : g.edges()) {
            const NodeId lo = std::min(e.u, e.v);
            const NodeId hi = std::max(e.u, e.v);
            flux_[lo + 1] += e.weight;
            flux_[hi + 1] -= e.weight;
        }
        for (NodeId p = 1; p <= n; ++p)
            flux_[p] += flux_[p - 1];

        prefixWeight_.assign(n + 1, 0);
        for (NodeId u = 0; u < n; ++u)
            prefixWeight_[u + 1] = prefixWeight_[u] + g.nodeWeight(u);
    }

    if (slabs_.size() == kMaxSlabs)
        slabs_.erase(slabs_.begin());
    slabs_.push_back({k, refine_passes, max_part_weight, false, 0, {}});
    Slab &s = slabs_.back();

    // Greedy left-to-right: place boundary b in the window that
    // keeps every part (including the remaining suffix) within
    // max_part_weight, at the flux minimum.
    std::vector<NodeId> cuts;
    NodeId prev = 0;
    for (int b = 1; b < k; ++b) {
        // Window on prefix weight: the finished parts must not
        // exceed the cap, and the remaining suffix must fit into
        // the remaining parts.
        const long long hi_weight = prefixWeight_[prev] + max_part_weight;
        const long long lo_weight =
            totalWeight_ - static_cast<long long>(k - b) * max_part_weight;
        NodeId best = invalidNode;
        for (NodeId p = prev + 1; p < n; ++p) {
            if (prefixWeight_[p] > hi_weight)
                break;
            if (prefixWeight_[p] < lo_weight)
                continue;
            if (best == invalidNode || flux_[p] < flux_[best])
                best = p;
        }
        if (best == invalidNode)
            return s; // infeasible
        cuts.push_back(best);
        prev = best;
    }

    s.assignment.assign(n, k - 1);
    NodeId start = 0;
    for (int b = 0; b < static_cast<int>(cuts.size()); ++b) {
        std::fill(s.assignment.begin() + start,
                  s.assignment.begin() + cuts[b], b);
        start = cuts[b];
    }
    partWeight_.assign(k, 0);
    conn_.assign(k, 0);
    partWeights(g, s.assignment, partWeight_);
    refine(g, s.assignment, partWeight_, conn_, max_part_weight,
           refine_passes);
    s.cutWeight = cutWeight(g, s.assignment);
    s.feasible = true;
    return s;
}

Partitioning
MultilevelSearch::partition(const MultilevelConfig &config)
{
    DCMBQC_ASSERT(config.k >= 1, "k must be positive");
    DCMBQC_ASSERT(config.alpha >= 1.0, "alpha must be >= 1");
    const int k = config.k;
    const NodeId n = input_->numNodes();
    if (k == 1 || n == 0)
        return Partitioning(n, k);

    Rng rng(config.seed);

    // A share above the total weight caps nothing, so every alpha
    // >= k gives the same cap; clamping there also keeps the cast
    // defined for a huge alpha. Allow one max-weight node of slack
    // so a feasible partition always exists even for alpha = 1.
    const double total = static_cast<double>(totalWeight_);
    const double share =
        std::min(config.alpha * total / static_cast<double>(k), total);
    const long long max_part_weight = std::max<long long>(
        static_cast<long long>(std::ceil(share)) + maxNodeWeight_,
        maxNodeWeight_);

    // --- Coarsening phase ------------------------------------------------
    const NodeId coarsen_target = std::max<NodeId>(
        static_cast<NodeId>(config.coarsenTargetPerPart) * k, 2 * k);
    const int depth = coarsen(coarsen_target, rng);
    // levels_ does not grow below this point.

    // --- Initial partition on the coarsest graph -------------------------
    partWeight_.assign(k, 0);
    conn_.assign(k, 0);
    const Graph &coarsest = graph(depth);
    initialPartition(coarsest, max_part_weight, rng, visitOrder_, queue_,
                     assign_, partWeight_);
    rebalance(coarsest, assign_, partWeight_, conn_, max_part_weight);
    refine(coarsest, assign_, partWeight_, conn_, max_part_weight,
           config.refinePasses);

    // --- Uncoarsening with refinement -------------------------------------
    for (int level = depth; level-- > 0;) {
        const Graph &fine = graph(level);
        const std::vector<NodeId> &to_coarse = levels_[level].toCoarse;
        fineAssign_.resize(fine.numNodes());
        for (NodeId u = 0; u < fine.numNodes(); ++u)
            fineAssign_[u] = assign_[to_coarse[u]];
        assign_.swap(fineAssign_);
        partWeights(fine, assign_, partWeight_);
        rebalance(fine, assign_, partWeight_, conn_, max_part_weight);
        refine(fine, assign_, partWeight_, conn_, max_part_weight,
               config.refinePasses);
    }

    // --- Sequential-slab candidate ----------------------------------------
    // MBQC computation graphs are temporally local (node ids follow
    // circuit time), so contiguous slabs cut few edges. The cut
    // boundaries snap to low-flux positions (e.g. gate-block
    // boundaries) within the balance window.
    if (config.useSequentialCandidate && n > k) {
        const Slab &s = slab(k, config.refinePasses, max_part_weight);
        if (s.feasible && s.cutWeight < cutWeight(*input_, assign_))
            return Partitioning(s.assignment, k);
    }
    return Partitioning(std::move(assign_), k);
}

long long
refineBoundaryPass(const Graph &g, Partitioning &p,
                   long long max_part_weight)
{
    std::vector<int> assign = p.assignment();
    std::vector<long long> part_weight(p.numParts());
    std::vector<long long> conn(p.numParts());
    partWeights(g, assign, part_weight);
    const long long gain =
        refineSweep(g, assign, part_weight, conn, max_part_weight);
    p = Partitioning(std::move(assign), p.numParts());
    return gain;
}

} // namespace dcmbqc

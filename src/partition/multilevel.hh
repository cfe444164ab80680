/**
 * @file
 * Multilevel k-way graph partitioner in the style of METIS
 * (Karypis-Kumar [32]): heavy-edge-matching coarsening, greedy
 * graph-growing initial partitioning on the coarsest graph, and
 * FM-style boundary refinement during uncoarsening. This plays the
 * role of the METIS `Partition(G, alpha)` call in Algorithm 2.
 */

#ifndef DCMBQC_PARTITION_MULTILEVEL_HH
#define DCMBQC_PARTITION_MULTILEVEL_HH

#include <cstdint>
#include <vector>

#include "common/rng.hh"
#include "graph/graph.hh"
#include "partition/partitioning.hh"

namespace dcmbqc
{

/** Tuning parameters of the multilevel partitioner. */
struct MultilevelConfig
{
    /** Number of parts. */
    int k = 2;

    /**
     * Balance constraint: max part weight <= alpha * (total / k).
     * alpha = 1 requests a perfectly balanced partition (a slack of
     * one maximum node weight is always tolerated so a feasible
     * solution exists). Every alpha >= k allows a single part to
     * hold the whole graph, so they all give the alpha = k result.
     */
    double alpha = 1.0;

    /** Stop coarsening below this node count (scaled by k). */
    int coarsenTargetPerPart = 30;

    /** Boundary refinement passes per uncoarsening level. */
    int refinePasses = 4;

    /**
     * Also evaluate a refined sequential-slab partition (contiguous
     * node-id blocks) and return whichever candidate cuts less.
     * MBQC computation graphs are temporally local -- node ids
     * follow circuit time -- so slabs often beat the multilevel
     * result on braid-shaped graphs (QAOA / QFT ladders).
     */
    bool useSequentialCandidate = true;

    /** RNG seed for matching and initial-partition randomization. */
    std::uint64_t seed = 1;
};

/**
 * Greedy heavy-edge matching, the coarsening step.
 *
 * Visits nodes in a random order; each unmatched node is matched to
 * the unmatched neighbor with maximum edge weight (ties broken by
 * smaller combined node weight to keep coarse nodes balanced, then
 * by adjacency order).
 *
 * @param match Out: match[u] = partner of u, or u itself when
 *        unmatched.
 * @param visit_order Scratch for the visiting order.
 * @return Number of matched pairs.
 */
int heavyEdgeMatching(const Graph &g, Rng &rng,
                      std::vector<NodeId> &match,
                      std::vector<NodeId> &visit_order);

/**
 * The multilevel k-way partitioner, run repeatedly on one graph as
 * Algorithm 2's probes do. The caller's graph is the finest level
 * and must outlive the search; scratch arrays are reused by every
 * call, and the refined slab candidate is computed once per (k,
 * refinePasses, balance cap).
 */
class MultilevelSearch
{
  public:
    explicit MultilevelSearch(const Graph &g);
    MultilevelSearch(Graph &&) = delete;

    /**
     * Partition the graph into config.k parts under the balance
     * constraint. Deterministic for a fixed config (seed included).
     */
    Partitioning partition(const MultilevelConfig &config);

  private:
    /** One level of the coarsening hierarchy. */
    struct Level
    {
        /** The coarse graph; unused at level 0, the input. */
        Graph graph;
        /** Map from this level's nodes to the next-coarser level. */
        std::vector<NodeId> toCoarse;
    };

    /** The refined sequential-slab candidate under one cap. */
    struct Slab
    {
        int k;
        int refinePasses;
        long long maxPartWeight;
        /** False when no slab fits the cap. */
        bool feasible;
        long long cutWeight;
        std::vector<int> assignment;
    };

    /** The graph at `level`: the input at level 0. */
    const Graph &
    graph(int level) const
    {
        return level == 0 ? *input_ : levels_[level].graph;
    }

    /**
     * Coarsen from the input until the target node count or until
     * matching stagnates. @return Index of the coarsest level.
     */
    int coarsen(NodeId target, Rng &rng);

    /** The graph `fine` contracts to along `to_coarse`. */
    Graph contract(const Graph &fine, const std::vector<NodeId> &to_coarse,
                   NodeId coarse_nodes);

    const Slab &slab(int k, int refine_passes, long long max_part_weight);

    const Graph *input_;
    /** Entry d holds level d's map and, below the input, its graph. */
    std::vector<Level> levels_;
    long long totalWeight_ = 0;
    int maxNodeWeight_ = 1;

    /** Edge weight crossing each id position; slab boundaries. */
    std::vector<long long> flux_;
    std::vector<long long> prefixWeight_;
    std::vector<Slab> slabs_;

    // Scratch, sized on first use and reused by every call.
    std::vector<NodeId> match_;
    std::vector<NodeId> visitOrder_;
    std::vector<NodeId> queue_;
    std::vector<Edge> ends_;
    std::vector<int> cursor_;
    std::vector<int> byLow_;
    std::vector<NodeId> stamp_;
    std::vector<int> pairFirst_;
    std::vector<int> assign_;
    std::vector<int> fineAssign_;
    std::vector<long long> partWeight_;
    std::vector<long long> conn_;
};

/**
 * One FM-style boundary refinement sweep, the one the multilevel
 * scheme runs, exposed for testing.
 *
 * Moves boundary nodes to the neighboring part with the highest
 * positive gain while keeping every part below max_part_weight.
 *
 * @return Total cut-weight improvement achieved by the pass.
 */
long long refineBoundaryPass(const Graph &g, Partitioning &p,
                             long long max_part_weight);

} // namespace dcmbqc

#endif // DCMBQC_PARTITION_MULTILEVEL_HH

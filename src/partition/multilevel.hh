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
     * solution exists).
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
 * Multilevel k-way partitioner.
 */
class MultilevelPartitioner
{
  public:
    explicit MultilevelPartitioner(MultilevelConfig config);

    /**
     * Partition the graph into k parts under the balance constraint.
     * Deterministic for a fixed config (seed included).
     */
    Partitioning partition(const Graph &g) const;

    const MultilevelConfig &config() const { return config_; }

  private:
    MultilevelConfig config_;
};

/**
 * One FM-style boundary refinement sweep used both inside the
 * multilevel scheme and exposed for testing.
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

/**
 * @file
 * OneQ-style single-QPU compiler: maps a computation graph onto the
 * constrained 3D (space x time) resource grid (Section II-C),
 * producing the sequence of execution layers. Used directly as the
 * monolithic baseline and as the per-QPU local compiler inside the
 * DC-MBQC framework.
 */

#ifndef DCMBQC_COMPILER_SINGLE_QPU_HH
#define DCMBQC_COMPILER_SINGLE_QPU_HH

#include "api/status.hh"
#include "compiler/execution_layer.hh"
#include "compiler/ordering.hh"
#include "graph/digraph.hh"
#include "graph/graph.hh"

namespace dcmbqc
{

/** Configuration of the single-QPU compiler. */
struct SingleQpuConfig
{
    GridSpec grid;
    PlacementOrder order = PlacementOrder::Creation;
};

/**
 * Greedy layer-packing spatio-temporal mapper.
 *
 * Nodes are placed in a dependency-consistent order. Each execution
 * layer packs nodes until the grid runs out of cells or an
 * intra-layer edge cannot be routed; edges whose endpoints live on
 * different layers become delay-line fusions (the fusee storage that
 * Algorithm 1 charges as |LayerIndex(u) - LayerIndex(v)|).
 */
class SingleQpuCompiler
{
  public:
    explicit SingleQpuCompiler(SingleQpuConfig config);

    /**
     * Compile a computation graph.
     *
     * @param g Computation graph (nodes = resource units, edges =
     *        fusions).
     * @param deps Real-time dependency graph over the same nodes.
     * @return The layer schedule, or INVALID_ARGUMENT naming the
     *         first node (in placement order) whose degree does not
     *         fit on an empty layer of the grid.
     */
    Expected<LocalSchedule> compile(const Graph &g,
                                    const Digraph &deps) const;

    const SingleQpuConfig &config() const { return config_; }

  private:
    SingleQpuConfig config_;
};

} // namespace dcmbqc

#endif // DCMBQC_COMPILER_SINGLE_QPU_HH

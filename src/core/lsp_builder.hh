/**
 * @file
 * Construction of the Layer Scheduling Problem instance from a
 * partitioned computation graph: per-part single-QPU compilation and
 * main-task extraction (the instance derives the synchronization
 * tasks from the cut edges). Used by PlaceLocalPass and by the
 * benches and tests that rebuild an LSP for a given partition.
 */

#ifndef DCMBQC_CORE_LSP_BUILDER_HH
#define DCMBQC_CORE_LSP_BUILDER_HH

#include <vector>

#include "api/status.hh"
#include "compiler/execution_layer.hh"
#include "compiler/ordering.hh"
#include "core/lsp.hh"
#include "graph/digraph.hh"
#include "graph/graph.hh"
#include "partition/partitioning.hh"
#include "photonic/grid.hh"

namespace dcmbqc
{

/**
 * Compile every part with the single-QPU compiler and assemble the
 * LSP instance (Definition IV.1) over the resulting execution
 * layers.
 *
 * @param g Computation graph (global node ids). The LSP borrows it:
 *        it must outlive the LSP.
 * @param deps Real-time dependency graph over the same nodes, also
 *        borrowed.
 * @param part k-way partition; part ids must cover [0, num_qpus).
 * @param num_qpus Number of QPUs (= parts).
 * @param grid Per-QPU resource grid.
 * @param order Placement order for the local compiler.
 * @param kmax Connection capacity per connection layer.
 * @param local_out Optional out: the per-QPU local schedules.
 * @param num_workers Workers for the per-QPU compiles (<= 0 uses
 *        the hardware default, 1 compiles sequentially). The per-part
 *        subproblems are independent and assembled in QPU order
 *        afterwards, so the result is byte-identical for every worker
 *        count.
 * @return The LSP instance, or INVALID_ARGUMENT from the first QPU
 *         (in QPU order) whose part does not fit the grid; node ids
 *         in the message are local to that QPU's part.
 */
Expected<LayerSchedulingProblem> buildLayerSchedulingProblem(
    const Graph &g, const Digraph &deps, const Partitioning &part,
    int num_qpus, const GridSpec &grid, PlacementOrder order, int kmax,
    std::vector<LocalSchedule> *local_out = nullptr,
    int num_workers = 0);

/** The LSP borrows `g` and `deps`, so neither may be a temporary. */
template <typename... Rest>
Expected<LayerSchedulingProblem>
buildLayerSchedulingProblem(Graph &&, Rest &&...) = delete;
template <typename... Rest>
Expected<LayerSchedulingProblem>
buildLayerSchedulingProblem(const Graph &, Digraph &&, Rest &&...) = delete;

} // namespace dcmbqc

#endif // DCMBQC_CORE_LSP_BUILDER_HH

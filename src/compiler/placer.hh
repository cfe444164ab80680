/**
 * @file
 * Per-layer grid state used by the single-QPU compiler: tracks which
 * cells host computation nodes, which are consumed by intra-layer
 * routing chains (Figure 4c), and supports transactional placement
 * so a node that does not fit can be moved to the next layer without
 * corrupting the current one.
 */

#ifndef DCMBQC_COMPILER_PLACER_HH
#define DCMBQC_COMPILER_PLACER_HH

#include <optional>
#include <vector>

#include "common/types.hh"
#include "photonic/grid.hh"

namespace dcmbqc
{

/**
 * Occupancy state of one execution layer's RSG grid.
 *
 * Cell states:
 *  - free: RSG output unused so far;
 *  - compute: hosts (part of) a computation node's super-cell;
 *  - routing: consumed by routing chains; a cell retains
 *    `routingUses` independent pass-throughs (2 for the 6-ring).
 */
class LayerGrid
{
  public:
    LayerGrid(const GridSpec &spec);

    int size() const { return size_; }
    int numCells() const { return size_ * size_; }

    /** Cells currently hosting computation nodes. */
    int computeCells() const { return computeCells_; }

    /** Cells consumed (fully or partially) by routing. */
    int routingCells() const { return routingCells_; }

    /** Reset to an empty layer. */
    void clear();

    // Transactions --------------------------------------------------------
    /** Begin recording changes for possible rollback. */
    void beginTxn();

    /** Keep all changes made since beginTxn(). */
    void commitTxn();

    /** Undo all changes made since beginTxn(). */
    void abortTxn();

    /**
     * Place a computation node needing `degree` fusion arms.
     *
     * Computation cells live on even rows only; odd rows are routing
     * lanes, so no placed node is ever walled in. Within the
     * computation rows, cells are chosen in serpentine scan order
     * from an internal cursor (consecutive nodes stay spatially
     * adjacent) and the node grows a connected super-cell when its
     * degree exceeds one resource state's arms.
     *
     * @return Cell indices of the super-cell, or nullopt when the
     *         node does not fit on this layer.
     */
    std::optional<std::vector<int>> placeNode(int degree);

    /** Number of cells available for computation (even rows). */
    int computeCapacity() const
    {
        return static_cast<int>(computeScan_.size());
    }

    /**
     * Reserve computation cells for photons of earlier layers that
     * still await fusion partners: their columns keep hosting
     * inter-layer fusion chains, shrinking the capacity available to
     * new nodes. Clamped to half the grid so progress is always
     * possible (overflow photons spill into delay lines, which
     * Algorithm 1 charges as lifetime).
     */
    void setReservedCompute(int cells);

    /**
     * Route between two placed super-cells through free / partially
     * used routing cells (BFS, 4-neighborhood). Adjacent super-cells
     * route with zero intermediate cells.
     *
     * The search keeps its scratch (parent links, target marks,
     * queue) in the grid: allocated by the first search, then reset
     * after every search, found or not, on just the cells it
     * touched. So a search costs the cells it visits, not the grid
     * size. A grid is not shared between threads.
     *
     * @return Number of intermediate routing cells consumed, or
     *         nullopt when no path exists.
     */
    std::optional<int> route(const std::vector<int> &from,
                             const std::vector<int> &to);

  private:
    enum class CellState : std::uint8_t { Free, Compute, Routing };

    int size_;
    int fusionArms_;
    int routingUsesPerCell_;
    std::vector<CellState> state_;
    std::vector<std::uint8_t> routingLeft_;
    /** Serpentine scan order over the computation (even) rows. */
    std::vector<int> computeScan_;
    int cursor_ = 0;
    int computeCells_ = 0;
    int routingCells_ = 0;
    int reservedCompute_ = 0;

    struct UndoEntry
    {
        int cell;
        CellState state;
        std::uint8_t routingLeft;
    };
    std::vector<UndoEntry> undoLog_;
    bool inTxn_ = false;
    int txnCursor_ = 0;
    int txnComputeCells_ = 0;
    int txnRoutingCells_ = 0;

    /** route() scratch: -2 / 0 everywhere between searches. */
    std::vector<int> parent_;
    std::vector<char> isTarget_;
    std::vector<int> queue_;

    void touch(int cell);
    /** Fill `out` up, down, left, right; return the count. */
    int neighbors(int cell, int out[4]) const;
    int nextFreeCell() const;
};

} // namespace dcmbqc

#endif // DCMBQC_COMPILER_PLACER_HH

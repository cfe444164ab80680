#include "compiler/placer.hh"

#include <algorithm>

#include "common/logging.hh"
#include "photonic/resource_state.hh"

namespace dcmbqc
{

LayerGrid::LayerGrid(const GridSpec &spec)
    : size_(spec.usableSize()),
      state_(static_cast<std::size_t>(size_) * size_, CellState::Free),
      routingLeft_(state_.size(), 0)
{
    const auto info = resourceStateInfo(spec.resourceState);
    fusionArms_ = info.fusionArms;
    routingUsesPerCell_ = info.routingUses;
    DCMBQC_ASSERT(size_ >= 1, "grid has no usable cells");

    // Computation cells on even rows, serpentine order; odd rows
    // stay free as routing lanes so no placed node gets walled in.
    for (int row = 0; row < size_; row += 2) {
        if ((row / 2) % 2 == 0) {
            for (int col = 0; col < size_; ++col)
                computeScan_.push_back(row * size_ + col);
        } else {
            for (int col = size_ - 1; col >= 0; --col)
                computeScan_.push_back(row * size_ + col);
        }
    }
}

void
LayerGrid::setReservedCompute(int cells)
{
    reservedCompute_ =
        std::min(std::max(cells, 0), computeCapacity() / 2);
}

void
LayerGrid::clear()
{
    std::fill(state_.begin(), state_.end(), CellState::Free);
    std::fill(routingLeft_.begin(), routingLeft_.end(), 0);
    cursor_ = 0;
    computeCells_ = 0;
    routingCells_ = 0;
    undoLog_.clear();
    inTxn_ = false;
}

void
LayerGrid::beginTxn()
{
    DCMBQC_ASSERT(!inTxn_, "nested transaction");
    inTxn_ = true;
    undoLog_.clear();
    txnCursor_ = cursor_;
    txnComputeCells_ = computeCells_;
    txnRoutingCells_ = routingCells_;
}

void
LayerGrid::commitTxn()
{
    DCMBQC_ASSERT(inTxn_, "commit without begin");
    inTxn_ = false;
    undoLog_.clear();
}

void
LayerGrid::abortTxn()
{
    DCMBQC_ASSERT(inTxn_, "abort without begin");
    // Undo in reverse order; the log may contain duplicates, so the
    // earliest (last applied here) value wins.
    for (auto it = undoLog_.rbegin(); it != undoLog_.rend(); ++it) {
        state_[it->cell] = it->state;
        routingLeft_[it->cell] = it->routingLeft;
    }
    cursor_ = txnCursor_;
    computeCells_ = txnComputeCells_;
    routingCells_ = txnRoutingCells_;
    inTxn_ = false;
    undoLog_.clear();
}

void
LayerGrid::touch(int cell)
{
    if (inTxn_)
        undoLog_.push_back({cell, state_[cell], routingLeft_[cell]});
}

int
LayerGrid::neighbors(int cell, int out[4]) const
{
    const int x = cell / size_;
    const int y = cell % size_;
    int count = 0;
    if (x > 0)
        out[count++] = cell - size_;
    if (x + 1 < size_)
        out[count++] = cell + size_;
    if (y > 0)
        out[count++] = cell - 1;
    if (y + 1 < size_)
        out[count++] = cell + 1;
    return count;
}

int
LayerGrid::nextFreeCell() const
{
    // Scan the computation rows serpentine-wise from the cursor so
    // consecutively placed nodes are spatially adjacent.
    const int total = static_cast<int>(computeScan_.size());
    for (int step = 0; step < total; ++step) {
        const int idx = (cursor_ + step) % total;
        if (state_[computeScan_[idx]] == CellState::Free)
            return idx;
    }
    return -1;
}

std::optional<std::vector<int>>
LayerGrid::placeNode(int degree)
{
    // Cells needed: 1, plus expansion when the degree exceeds one
    // state's arms. A chain of m cells offers m*arms - 2*(m-1) arms.
    int cells_needed = 1;
    if (degree > fusionArms_) {
        DCMBQC_ASSERT(fusionArms_ >= 3, "resource state too small");
        const int extra_arms = fusionArms_ - 2;
        cells_needed +=
            (degree - fusionArms_ + extra_arms - 1) / extra_arms;
    }

    // Capacity check including the cells reserved for pending
    // photons' fusion-chain columns. The reservation is soft: the
    // first node of a layer is always admitted so oversized
    // super-cells cannot deadlock placement.
    if (computeCells_ > 0 &&
        computeCells_ + cells_needed + reservedCompute_ >
            computeCapacity()) {
        return std::nullopt;
    }

    const int start_idx = nextFreeCell();
    if (start_idx < 0)
        return std::nullopt;
    const int start = computeScan_[start_idx];

    std::vector<int> super;
    super.push_back(start);
    touch(start);
    state_[start] = CellState::Compute;

    // Grow the super-cell over free neighbors (BFS frontier).
    std::size_t frontier = 0;
    int nbs[4];
    while (static_cast<int>(super.size()) < cells_needed) {
        bool grown = false;
        for (; frontier < super.size() && !grown; ++frontier) {
            const int count = neighbors(super[frontier], nbs);
            for (int i = 0; i < count; ++i) {
                const int nb = nbs[i];
                if (state_[nb] == CellState::Free) {
                    touch(nb);
                    state_[nb] = CellState::Compute;
                    super.push_back(nb);
                    grown = true;
                    break;
                }
            }
            if (grown)
                --frontier; // revisit this cell for more neighbors
        }
        if (!grown) {
            // Not enough adjacent space; caller aborts the txn.
            return std::nullopt;
        }
    }

    computeCells_ += cells_needed;
    cursor_ = (start_idx + 1) % static_cast<int>(computeScan_.size());
    return super;
}

std::optional<int>
LayerGrid::route(const std::vector<int> &from, const std::vector<int> &to)
{
    // Shared cell (same RSG column) or direct adjacency: no
    // intermediate routing states needed.
    for (int a : from)
        for (int b : to)
            if (std::abs(a / size_ - b / size_) +
                    std::abs(a % size_ - b % size_) <= 1)
                return 0;

    // BFS from all `from` cells to any `to` cell through cells with
    // remaining routing capacity. The scratch is clean on entry.
    if (parent_.empty()) {
        parent_.assign(state_.size(), -2);
        isTarget_.assign(state_.size(), 0);
    }
    queue_.clear();
    for (int b : to)
        isTarget_[b] = 1;
    for (int a : from) {
        parent_[a] = -1;
        queue_.push_back(a);
    }

    auto passable = [&](int cell) {
        if (state_[cell] == CellState::Free)
            return true;
        return state_[cell] == CellState::Routing &&
               routingLeft_[cell] > 0;
    };

    int found = -1;
    std::size_t head = 0;
    int nbs[4];
    while (head < queue_.size() && found < 0) {
        const int cell = queue_[head++];
        const int count = neighbors(cell, nbs);
        for (int i = 0; i < count; ++i) {
            const int nb = nbs[i];
            if (parent_[nb] != -2)
                continue;
            if (isTarget_[nb]) {
                parent_[nb] = cell;
                found = cell; // last intermediate before target
                break;
            }
            if (!passable(nb))
                continue;
            parent_[nb] = cell;
            queue_.push_back(nb);
        }
    }

    // Walk back from `found` to a source cell, consuming capacity
    // (no step when the search failed).
    int used = 0;
    for (int cell = found; cell >= 0 && parent_[cell] != -1;
         cell = parent_[cell]) {
        touch(cell);
        if (state_[cell] == CellState::Free) {
            state_[cell] = CellState::Routing;
            routingLeft_[cell] =
                static_cast<std::uint8_t>(routingUsesPerCell_ - 1);
            ++routingCells_;
        } else {
            DCMBQC_ASSERT(routingLeft_[cell] > 0, "routing overuse");
            --routingLeft_[cell];
        }
        ++used;
    }

    // Only queued cells (the sources among them) and `to` cells were
    // written.
    for (int cell : queue_)
        parent_[cell] = -2;
    for (int b : to) {
        parent_[b] = -2;
        isTarget_[b] = 0;
    }
    if (found < 0)
        return std::nullopt;
    return used;
}

} // namespace dcmbqc

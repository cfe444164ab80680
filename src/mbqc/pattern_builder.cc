#include "mbqc/pattern_builder.hh"

#include <algorithm>
#include <cstdint>
#include <deque>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"

namespace dcmbqc
{

namespace
{

/** Key for an undirected node pair. */
std::uint64_t
pairKey(NodeId a, NodeId b)
{
    const std::uint64_t lo = static_cast<std::uint32_t>(std::min(a, b));
    const std::uint64_t hi = static_cast<std::uint32_t>(std::max(a, b));
    return (hi << 32) | lo;
}

/**
 * One toggled pair, stored in first-toggle order; `on` tracks the
 * current toggle parity in place, so re-toggling never appends a
 * duplicate and the pair keeps its first position.
 */
struct PendingEdge
{
    NodeId a;
    NodeId b;
    bool on;
    bool frozen;
};

/**
 * Incremental core: feeds J/CZ ops one at a time, emits each settled
 * surviving edge the moment it reaches the front of the pending
 * queue (emitting earlier would make the edge order depend on the
 * chunking of the input).
 */
class SettledPrefixBuilder
{
  public:
    explicit SettledPrefixBuilder(int num_qubits)
        : cur_(static_cast<std::size_t>(num_qubits)),
          wire_entries_(static_cast<std::size_t>(num_qubits))
    {
        for (QubitId w = 0; w < num_qubits; ++w)
            cur_[w] = addNode(w);
    }

    void
    feed(const JOp &op)
    {
        if (op.kind == JOp::Kind::CZ) {
            toggle(cur_[op.q0], op.q0, cur_[op.q1], op.q1);
            return;
        }
        const NodeId m = cur_[op.q0];
        const NodeId n = addNode(op.q0);
        toggle(m, op.q0, n, op.q0);
        // J(alpha) measures the old node at -alpha; flow f(m)=n.
        angles_[m] = -op.angle;
        flow_[m] = n;
        measurementOrder_.push_back(m);
        cur_[op.q0] = n;
        // m left the frontier: every pair touching it is settled.
        retire(op.q0);
        drain();
    }

    /** Lower one gate (the `transpileToJCz` kernel) and feed it. */
    void
    feed(const Gate &gate)
    {
        ops_.clear();
        appendGateJOps(gate, ops_);
        for (const JOp &op : ops_)
            feed(op);
    }

    Pattern
    finish()
    {
        // End of input settles everything still pending.
        for (auto &entry : pending_)
            entry.frozen = true;
        live_keys_.clear();
        drain();
        DCMBQC_ASSERT(pending_.empty(),
                      "pattern builder left pending edges");
        const auto n = static_cast<NodeId>(wires_.size());
        Pattern pattern(Graph(n, std::move(edges_)), std::move(angles_),
                        std::move(flow_), std::move(wires_),
                        std::move(measurementOrder_), std::move(cur_));
        pattern.validate();
        return pattern;
    }

    std::uint64_t pendingEdges() const { return pending_.size(); }

    std::uint64_t frontierNodes() const { return cur_.size(); }

    /** Rough live-state footprint (frontier + pending indexes). */
    std::uint64_t
    liveBytes() const
    {
        const std::uint64_t map_entry = 64; // node + bucket overhead
        return cur_.size() * sizeof(NodeId) +
               pending_.size() * sizeof(PendingEdge) +
               live_keys_.size() * map_entry +
               wire_entries_.size() * sizeof(wire_entries_[0]) +
               node_positions_ * sizeof(std::uint64_t);
    }

  private:
    /** A fresh unmeasured node on `wire`. */
    NodeId
    addNode(QubitId wire)
    {
        angles_.push_back(0.0);
        flow_.push_back(invalidNode);
        wires_.push_back(wire);
        return static_cast<NodeId>(wires_.size() - 1);
    }

    void
    toggle(NodeId a, QubitId wa, NodeId b, QubitId wb)
    {
        const std::uint64_t key = pairKey(a, b);
        auto it = live_keys_.find(key);
        if (it != live_keys_.end()) {
            pending_[it->second - base_].on ^= true;
            return;
        }
        const std::uint64_t pos = base_ + pending_.size();
        live_keys_.emplace(key, pos);
        wire_entries_[wa].push_back(pos);
        wire_entries_[wb].push_back(pos);
        node_positions_ += 2;
        pending_.push_back({a, b, true, false});
    }

    void
    retire(QubitId w)
    {
        std::vector<std::uint64_t> &entries = wire_entries_[w];
        for (const std::uint64_t pos : entries) {
            if (pos < base_)
                continue; // already emitted via the other endpoint
            PendingEdge &entry = pending_[pos - base_];
            if (entry.frozen)
                continue;
            entry.frozen = true;
            live_keys_.erase(pairKey(entry.a, entry.b));
        }
        node_positions_ -= entries.size();
        entries.clear();
    }

    void
    drain()
    {
        while (!pending_.empty() && pending_.front().frozen) {
            const PendingEdge &entry = pending_.front();
            if (entry.on)
                edges_.push_back({entry.a, entry.b});
            pending_.pop_front();
            ++base_;
        }
    }

    // The pattern's parts, in node-id and edge-id order.
    std::vector<Edge> edges_;
    std::vector<double> angles_;
    std::vector<NodeId> flow_;
    std::vector<QubitId> wires_;
    std::vector<NodeId> measurementOrder_;

    /** Each wire's current (frontier) node; the outputs at the end. */
    std::vector<NodeId> cur_;

    /** Scratch for the lowering of one gate. */
    std::vector<JOp> ops_;

    /** Settled-prefix queue; index of front() is base_. */
    std::deque<PendingEdge> pending_;
    std::uint64_t base_ = 0;

    /** pairKey -> absolute position of the still-toggleable entry. */
    std::unordered_map<std::uint64_t, std::uint64_t> live_keys_;

    /**
     * Wire -> positions of the entries touching its current node
     * (each frontier node is the current node of exactly one wire).
     */
    std::vector<std::vector<std::uint64_t>> wire_entries_;
    std::uint64_t node_positions_ = 0;
};

} // namespace

Pattern
buildPattern(const JCircuit &jcircuit)
{
    SettledPrefixBuilder builder(jcircuit.numQubits);
    for (const JOp &op : jcircuit.ops)
        builder.feed(op);
    return builder.finish();
}

Pattern
buildPattern(const Circuit &circuit)
{
    SettledPrefixBuilder builder(circuit.numQubits());
    for (const Gate &gate : circuit.gates())
        builder.feed(gate);
    return builder.finish();
}

Expected<Pattern>
buildPatternStreamed(CircuitStream &stream, const StreamWindow &window,
                     const WindowCheckpoint &checkpoint,
                     StreamStats *stats)
{
    DCMBQC_ASSERT(stream.numQubits() >= 1,
                  "streamed circuit must have at least one qubit");
    stream.reset();

    SettledPrefixBuilder builder(stream.numQubits());
    StreamStats local;

    const std::uint64_t total = stream.totalGates();
    // Ingest chunk: the window when active, else a fixed batch that
    // bounds the scratch gate/op buffers without adding checkpoints.
    const std::size_t chunk =
        window.active() ? window.size : std::size_t{4096};

    std::vector<Gate> gates;
    std::uint64_t consumed = 0;
    std::uint32_t window_index = 0;

    for (;;) {
        gates.clear();
        const std::size_t got = stream.next(chunk, gates);
        if (got == 0)
            break;
        for (const Gate &gate : gates)
            builder.feed(gate);
        consumed += got;
        local.opsStreamed += got;
        local.pendingEdgePeak =
            std::max(local.pendingEdgePeak, builder.pendingEdges());
        local.frontierNodePeak =
            std::max(local.frontierNodePeak, builder.frontierNodes());
        local.liveBytesPeak =
            std::max(local.liveBytesPeak, builder.liveBytes());
        if (window.active()) {
            ++local.windows;
            if (checkpoint) {
                WindowEvent event;
                event.index = window_index;
                event.settled = consumed;
                event.total = total;
                event.frontierLive = builder.pendingEdges();
                Status status = checkpoint(event);
                if (!status.ok())
                    return status;
            }
            ++window_index;
        }
    }

    if (!window.active()) {
        // Whole input was one window; fire the checkpoint once.
        ++local.windows;
        if (checkpoint) {
            WindowEvent event;
            event.index = 0;
            event.settled = consumed;
            event.total = total;
            event.frontierLive = builder.pendingEdges();
            Status status = checkpoint(event);
            if (!status.ok())
                return status;
        }
    }

    Pattern pattern = builder.finish();
    if (stats != nullptr)
        stats->merge(local);
    return pattern;
}

} // namespace dcmbqc

/**
 * @file
 * Pull-based gate streams: the input representation of the streaming
 * compile path. A `CircuitStream` yields a circuit's gates in order
 * without requiring the circuit to be materialized, so a 10^6-qubit
 * workload enters the pipeline through an O(window) buffer instead
 * of an O(gates) vector.
 *
 * Streams are *replayable*: `reset()` rewinds to the first gate, and
 * the library relies on it — cache-key computation drains the stream
 * once to hash it, the compile drains it again, and differential
 * harnesses drain it as often as they re-compile. Implementations
 * therefore derive gates from O(1) state (a wrapped vector cursor, a
 * closed-form index function) rather than consuming an external
 * source.
 *
 * The gate sequence of a stream is part of compile identity: two
 * drains of the same stream must yield byte-identical gate
 * sequences, and `totalGates()` must equal exactly the number of
 * gates a full drain yields.
 */

#ifndef DCMBQC_CIRCUIT_CIRCUIT_STREAM_HH
#define DCMBQC_CIRCUIT_CIRCUIT_STREAM_HH

#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "circuit/circuit.hh"

namespace dcmbqc
{

/** An ordered gate sequence delivered window by window. */
class CircuitStream
{
  public:
    virtual ~CircuitStream() = default;

    /** Display/report label of the streamed program. */
    virtual const std::string &name() const = 0;

    /** Qubit count of the streamed program (fixed). */
    virtual int numQubits() const = 0;

    /** Exact number of gates a full drain yields. */
    virtual std::uint64_t totalGates() const = 0;

    /**
     * Append up to `max_gates` next gates to `out` (which is not
     * cleared). Returns the number appended; 0 means the stream is
     * exhausted. `max_gates` = 0 is invalid.
     */
    virtual std::size_t next(std::size_t max_gates,
                             std::vector<Gate> &out) = 0;

    /** Rewind to the first gate. */
    virtual void reset() = 0;

    /**
     * Drain (from the start) into a materialized Circuit — the
     * bridge to Circuit-only consumers (--save-circuit, the service
     * wire format). Leaves the stream exhausted.
     */
    Circuit materialize();
};

/**
 * Stream view over a materialized circuit. Borrows the circuit (the
 * owner must outlive the stream) — this is the adapter the driver
 * uses to push a Circuit-entry request through the windowed front
 * end without copying the gate list.
 */
class VectorCircuitStream final : public CircuitStream
{
  public:
    explicit VectorCircuitStream(const Circuit &circuit)
        : circuit_(&circuit)
    {
    }

    const std::string &name() const override
    {
        return circuit_->name();
    }

    int numQubits() const override { return circuit_->numQubits(); }

    std::uint64_t totalGates() const override
    {
        return circuit_->numGates();
    }

    std::size_t next(std::size_t max_gates,
                     std::vector<Gate> &out) override;

    void reset() override { cursor_ = 0; }

  private:
    const Circuit *circuit_;
    std::size_t cursor_ = 0;
};

/**
 * Stream whose i-th gate is computed by a pure index function —
 * the O(1)-state representation the huge-circuit generator families
 * use. The callback must be deterministic in its index.
 */
class GeneratorCircuitStream final : public CircuitStream
{
  public:
    using GateAt = std::function<Gate(std::uint64_t index)>;

    GeneratorCircuitStream(std::string name, int num_qubits,
                           std::uint64_t total_gates, GateAt gate_at)
        : name_(std::move(name)),
          numQubits_(num_qubits),
          totalGates_(total_gates),
          gateAt_(std::move(gate_at))
    {
    }

    const std::string &name() const override { return name_; }
    int numQubits() const override { return numQubits_; }
    std::uint64_t totalGates() const override { return totalGates_; }

    std::size_t next(std::size_t max_gates,
                     std::vector<Gate> &out) override;

    void reset() override { cursor_ = 0; }

  private:
    std::string name_;
    int numQubits_;
    std::uint64_t totalGates_;
    GateAt gateAt_;
    std::uint64_t cursor_ = 0;
};

} // namespace dcmbqc

#endif // DCMBQC_CIRCUIT_CIRCUIT_STREAM_HH

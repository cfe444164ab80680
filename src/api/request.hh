/**
 * @file
 * A unit of compilation work for `CompilerDriver`: one program plus
 * an optional label for report correlation. A request can enter the
 * pipeline at any of the natural representations of Figure 2:
 *
 *   Circuit        -> runs Transpile + PatternBuild first;
 *   CircuitStream  -> like Circuit, but gates arrive windowed and
 *                     the pattern is built incrementally
 *                     (PatternStream) without materializing the
 *                     gate list;
 *   Pattern        -> runs the graph/dependency derivation only;
 *   Graph + Digraph-> goes straight to partitioning/scheduling.
 *
 * `validate()` rejects malformed inputs (empty circuit, node-count
 * mismatch, cyclic dependency graph) with a Status instead of
 * tripping an internal assertion downstream.
 */

#ifndef DCMBQC_API_REQUEST_HH
#define DCMBQC_API_REQUEST_HH

#include <memory>
#include <optional>
#include <string>

#include "api/cancellation.hh"
#include "api/status.hh"
#include "circuit/circuit.hh"
#include "circuit/circuit_stream.hh"
#include "graph/digraph.hh"
#include "graph/graph.hh"
#include "mbqc/pattern.hh"

namespace dcmbqc
{

/** One compilation job: where the pipeline starts and with what. */
class CompileRequest
{
  public:
    /** The representation the request enters the pipeline with. */
    enum class EntryPoint
    {
        Circuit,
        Pattern,
        Graph,
        CircuitStream,
    };

    /** Start from a gate-model circuit (full Figure-2 pipeline). */
    static CompileRequest fromCircuit(Circuit circuit,
                                      std::string label = "");

    /**
     * Start from a windowed gate source (streaming front end). The
     * stream is shared because a single drain-and-rebuild request
     * may be replayed (cache verification, portfolio racing); it
     * must be replayable via `reset()`. Compilation semantics — and
     * the cache key — are defined by the gate sequence the stream
     * yields, so a stream and its materialized circuit alias the
     * same cache entry.
     */
    static CompileRequest fromCircuitStream(
        std::shared_ptr<CircuitStream> stream, std::string label = "");

    /** Start from a prebuilt one-way measurement pattern. */
    static CompileRequest fromPattern(Pattern pattern,
                                      std::string label = "");

    /**
     * Start from a raw computation graph and its real-time
     * dependency graph (both over the same dense node ids).
     */
    static CompileRequest fromGraph(Graph graph, Digraph deps,
                                    std::string label = "");

    EntryPoint entryPoint() const { return entry_; }

    const std::string &label() const { return label_; }
    CompileRequest &
    withLabel(std::string label)
    {
        label_ = std::move(label);
        return *this;
    }

    /**
     * Attach a borrowed cancellation token watched at every pass
     * boundary of this request's compilation. The token must outlive
     * the compile call; it is control metadata, not content — two
     * requests differing only in their token share a cache line.
     * Pass nullptr to detach.
     */
    CompileRequest &
    withCancellation(const CancellationToken *token)
    {
        cancel_ = token;
        return *this;
    }

    /** The attached token; null when the request is not cancellable. */
    const CancellationToken *cancellation() const { return cancel_; }

    /**
     * Check the request for conditions that would otherwise abort
     * deep inside a pass: empty circuits and patterns, graphs with
     * no nodes, graph/dependency node-count mismatches, and cyclic
     * dependency graphs.
     */
    Status validate() const;

    // Entry-point payload accessors. Calling an accessor that does
    // not match entryPoint() is a library-bug-level contract
    // violation (the driver never does it) and panics.
    const Circuit &circuit() const;
    const Pattern &pattern() const;
    const Graph &graph() const;
    const Digraph &deps() const;
    CircuitStream &stream() const;

  private:
    CompileRequest() = default;

    EntryPoint entry_ = EntryPoint::Circuit;
    std::string label_;
    const CancellationToken *cancel_ = nullptr;
    std::optional<Circuit> circuit_;
    std::optional<Pattern> pattern_;
    std::optional<Graph> graph_;
    std::optional<Digraph> deps_;
    std::shared_ptr<CircuitStream> stream_;
};

/**
 * INVALID_ARGUMENT naming the first measured node of `pattern` whose
 * angle is NaN or infinite; OK otherwise.
 */
Status checkFiniteAngles(const Pattern &pattern);

} // namespace dcmbqc

#endif // DCMBQC_API_REQUEST_HH

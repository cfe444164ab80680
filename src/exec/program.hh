/**
 * @file
 * `ExecProgram`: the unit of work an `ExecutionBackend` runs. It
 * bundles the semantic payload (a measurement pattern) with the
 * structural payload (computation graph + real-time dependency
 * graph) and, optionally, a compiled distributed schedule — so one
 * program object can feed all three backends: the simulators read
 * the pattern, the Monte-Carlo loss backend reads the schedule.
 *
 * Factories derive whatever is derivable (a circuit is lowered to
 * its pattern; the dependencies are derived from the pattern, whose
 * graph the program reads in place), so callers only supply what
 * they actually have.
 */

#ifndef DCMBQC_EXEC_PROGRAM_HH
#define DCMBQC_EXEC_PROGRAM_HH

#include <optional>
#include <string>

#include "api/status.hh"
#include "circuit/circuit.hh"
#include "core/pipeline.hh"
#include "graph/digraph.hh"
#include "graph/graph.hh"
#include "mbqc/pattern.hh"

namespace dcmbqc
{

class CompileRequest;

/** One executable program, with optional compiled schedule. */
class ExecProgram
{
  public:
    /** Lower a circuit to its pattern and wrap it. */
    static ExecProgram fromCircuit(const Circuit &circuit,
                                   std::string label = "");

    /** Wrap a prebuilt pattern (graph/deps derived from it). */
    static ExecProgram fromPattern(Pattern pattern,
                                   std::string label = "");

    /**
     * Wrap a raw computation graph + dependency graph. No pattern:
     * only schedule-level backends (mc-loss) can run it.
     */
    static ExecProgram fromGraph(Graph graph, Digraph deps,
                                 std::string label = "");

    /**
     * Build from a compile request, reusing its entry-point payload
     * (the driver's compileAndExecute path).
     */
    static ExecProgram fromRequest(const CompileRequest &request);

    /** Attach a compiled distributed schedule (chainable). */
    ExecProgram &withSchedule(DcMbqcResult result);

    /**
     * Attach a monolithic single-QPU baseline schedule (chainable).
     * Schedule-level backends (mc-loss) accept either form: a
     * baseline carries per-photon generation times but no partition,
     * so every fusion is intra-QPU and no connector noise applies.
     */
    ExecProgram &withBaseline(BaselineResult baseline);

    const std::string &label() const { return label_; }

    bool hasPattern() const { return pattern_.has_value(); }
    bool hasSchedule() const { return compiled_.has_value(); }
    bool hasBaseline() const { return baseline_.has_value(); }

    /** The measurement pattern; panics when absent (check first). */
    const Pattern &pattern() const;

    /**
     * Computation graph (always present): the pattern's own graph
     * when there is a pattern.
     */
    const Graph &graph() const
    {
        return pattern_ ? pattern_->graph() : graph_;
    }

    /** Real-time dependency graph (always present). */
    const Digraph &deps() const { return deps_; }

    /** The compiled schedule; panics when absent (check first). */
    const DcMbqcResult &schedule() const;

    /** The baseline schedule; panics when absent (check first). */
    const BaselineResult &baseline() const;

    /**
     * Structural consistency: graph/deps node counts match, and an
     * attached schedule covers exactly the graph's nodes.
     */
    Status validate() const;

  private:
    ExecProgram() = default;

    std::string label_;
    std::optional<Pattern> pattern_;
    /** The graph of a `fromGraph` program; empty beside a pattern. */
    Graph graph_;
    Digraph deps_;
    std::optional<DcMbqcResult> compiled_;
    std::optional<BaselineResult> baseline_;
};

} // namespace dcmbqc

#endif // DCMBQC_EXEC_PROGRAM_HH

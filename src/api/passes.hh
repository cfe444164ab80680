/**
 * @file
 * The concrete passes of the Figure-2 pipeline, in driver order:
 *
 *   Transpile     circuit -> {CZ, J(alpha)} program
 *   PatternBuild  {CZ, J} program -> measurement pattern, then
 *                 derives the computation graph + real-time deps
 *   PatternStream windowed fusion of Transpile + PatternBuild over a
 *                 CircuitStream (streaming front end); replaces the
 *                 two passes above on the streaming path
 *   Partition     adaptive k-way partitioning (Algorithm 2)
 *   PlaceLocal    per-QPU single-QPU compilation + LSP assembly
 *   ScheduleList  priority list scheduling (Section IV-B)
 *   RefineBdir    bottleneck-driven iterative refinement (Alg. 3)
 *   PlaceBaseline monolithic single-QPU mapping (baseline pipeline)
 *
 * Every pass is stateless: all inputs and outputs live on the
 * PassContext, so the same pass objects may run concurrently on
 * different contexts during batch compilation.
 */

#ifndef DCMBQC_API_PASSES_HH
#define DCMBQC_API_PASSES_HH

#include "api/pass.hh"

namespace dcmbqc
{

/** circuit -> JCircuit. Requires ctx.circuit. */
class TranspilePass : public Pass
{
  public:
    const char *name() const override { return "Transpile"; }
    Status run(PassContext &ctx) const override;
};

/**
 * JCircuit -> Pattern (skipped when the request supplied one), then
 * derives ctx.graph / ctx.deps from the pattern.
 */
class PatternBuildPass : public Pass
{
  public:
    const char *name() const override { return "PatternBuild"; }
    Status run(PassContext &ctx) const override;
};

/**
 * CircuitStream -> Pattern in one windowed sweep (gates are lowered
 * and fed to the settled-prefix builder window by window; see
 * mbqc/pattern_builder.hh), then derives ctx.graph / ctx.deps
 * like PatternBuildPass. Requires ctx.stream; honors ctx.window and
 * fires ctx.windowCheckpoint between windows. The resulting pattern
 * is byte-identical to the Transpile + PatternBuild pair on the
 * materialized circuit.
 */
class PatternStreamPass : public Pass
{
  public:
    const char *name() const override { return "PatternStream"; }
    Status run(PassContext &ctx) const override;
};

/** Adaptive graph partitioning (Algorithm 2). */
class PartitionPass : public Pass
{
  public:
    const char *name() const override { return "Partition"; }
    Status run(PassContext &ctx) const override;
};

/** Per-QPU local compilation + LSP construction. */
class PlaceLocalPass : public Pass
{
  public:
    const char *name() const override { return "PlaceLocal"; }
    Status run(PassContext &ctx) const override;
};

/** Default priority list scheduling over the LSP. */
class ScheduleListPass : public Pass
{
  public:
    const char *name() const override { return "ScheduleList"; }
    Status run(PassContext &ctx) const override;
};

/** BDIR simulated-annealing refinement (Algorithm 3). */
class RefineBdirPass : public Pass
{
  public:
    const char *name() const override { return "RefineBdir"; }
    Status run(PassContext &ctx) const override;
};

/** Monolithic OneQ-style mapping + lifetime evaluation. */
class PlaceBaselinePass : public Pass
{
  public:
    const char *name() const override { return "PlaceBaseline"; }
    Status run(PassContext &ctx) const override;
};

} // namespace dcmbqc

#endif // DCMBQC_API_PASSES_HH

/**
 * @file
 * Configuration and results of the end-to-end DC-MBQC compilation
 * pipeline (Figure 2): adaptive graph partitioning -> per-QPU
 * single-QPU compilation -> layer scheduling (list + BDIR), producing
 * a distributed schedule and the required-photon-lifetime /
 * execution-time metrics of Section V, plus the result of the
 * monolithic (OneQ-style) baseline used in Tables III-V. The
 * pipeline itself runs in `CompilerDriver` (api/driver.hh).
 */

#ifndef DCMBQC_CORE_PIPELINE_HH
#define DCMBQC_CORE_PIPELINE_HH

#include <vector>

#include "compiler/single_qpu.hh"
#include "core/bdir.hh"
#include "core/lsp.hh"
#include "partition/adaptive.hh"

namespace dcmbqc
{

/**
 * Full configuration of the DC-MBQC compiler.
 *
 * Normalization: `partition.k` is always derived from `numQpus` —
 * the partitioner must produce exactly one part per QPU, so any
 * user-supplied `partition.k` is overwritten when the config enters
 * the compiler (`CompileOptions::build`, which reports the overwrite
 * as a warning).
 */
struct DcMbqcConfig
{
    /** Number of fully connected QPUs. */
    int numQpus = 4;

    /** Per-QPU resource grid. */
    GridSpec grid;

    /** Connection capacity Kmax per connection layer. */
    int kmax = 4;

    /** Adaptive partitioning parameters (epsilon_Q, alpha_max...). */
    AdaptiveConfig partition;

    /** Run the BDIR refinement pass after list scheduling. */
    bool useBdir = true;

    /** BDIR / simulated annealing parameters. */
    BdirConfig bdir;

    /** Placement order for the per-QPU compiler. */
    PlacementOrder order = PlacementOrder::Creation;
};

/** Result of a distributed compilation. */
struct DcMbqcResult
{
    /** The k-way partition of the computation graph. */
    Partitioning partition;

    /** Diagnostics of Algorithm 2. */
    double partitionModularity = 0.0;
    double partitionImbalance = 1.0;

    /** Number of cut edges = connector pairs. */
    int numConnectors = 0;

    /** Per-QPU local schedules (local node ids). */
    std::vector<LocalSchedule> localSchedules;

    /** The final distributed schedule. */
    Schedule schedule;

    /** Objective components of the final schedule. */
    ScheduleMetrics metrics;

    /** Execution time in clock cycles. */
    int executionTime() const { return metrics.makespan; }

    /** Required photon lifetime. */
    int requiredLifetime() const { return metrics.tauPhoton(); }
};

/** Result of the monolithic baseline compilation. */
struct BaselineResult
{
    LocalSchedule schedule;
    LifetimeBreakdown lifetime;

    /** Execution time in physical clock cycles. */
    int executionTime() const
    {
        return schedule.physicalExecutionTime();
    }

    int requiredLifetime() const { return lifetime.tauPhoton(); }
};

} // namespace dcmbqc

#endif // DCMBQC_CORE_PIPELINE_HH

/**
 * @file
 * Required photon lifetime (Section III, Algorithm 1): the maximum
 * number of clock cycles any photon must be stored in a delay line.
 * Unifies the two storage sources:
 *  - fusees waiting for their fusion partner generated on another
 *    execution layer: tau = |LayerIndex(u) - LayerIndex(v)|;
 *  - measurees waiting for the classical outcomes that determine
 *    their basis: the MTime recurrence over the dependency graph.
 * Removees (Z-measured photons) contribute nothing thanks to signal
 * shifting.
 */

#ifndef DCMBQC_CORE_LIFETIME_HH
#define DCMBQC_CORE_LIFETIME_HH

#include <algorithm>
#include <vector>

#include "common/types.hh"
#include "graph/digraph.hh"
#include "graph/graph.hh"

namespace dcmbqc
{

/** Result of Algorithm 1. */
struct LifetimeBreakdown
{
    /** Part 1: max fusee storage over all fusee pairs. */
    int tauFusee = 0;

    /** Part 2: max measuree storage over all measured nodes. */
    int tauMeasuree = 0;

    /** Part 3: the required photon lifetime. */
    int tauPhoton() const { return std::max(tauFusee, tauMeasuree); }
};

/**
 * Algorithm 1: required photon lifetime of a compiled program.
 *
 * @param fusee_edges Graph whose every edge is a fusee pair to charge
 *        (a monolithic program; evaluateSchedule charges only a
 *        distributed schedule's local edges).
 * @param deps Real-time (X-) dependency graph over the same nodes.
 * @param node_time LayerIndex(u) of every node.
 */
LifetimeBreakdown computeLifetime(const Graph &fusee_edges,
                                  const Digraph &deps,
                                  const std::vector<TimeSlot> &node_time);

/**
 * The per-node measuree waiting times MTime[u] - LayerIndex(u) from
 * Algorithm 1 Part 2 (exposed for the refresh pass and tests), so
 * MTime[u] = node_time[u] + wait[u].
 *
 * @param order A topological order of `deps`, or null to sort here.
 */
std::vector<int> measureeWaits(const Digraph &deps,
                               const std::vector<TimeSlot> &node_time,
                               const std::vector<NodeId> *order = nullptr);

} // namespace dcmbqc

#endif // DCMBQC_CORE_LIFETIME_HH

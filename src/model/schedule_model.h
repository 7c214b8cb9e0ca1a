/**
 * @file
 * Post-route scheduled-cycle model.
 *
 * The analytic Marionette model (arch_model.h) predicts from the
 * workload's loop structure alone and knows nothing about where the
 * compiler actually put things.  This model closes that gap: it is
 * fed the route pass's *derived* timing — per-phase initiation
 * intervals and pipeline fill latencies from the place pass's own
 * timing model (PhaseTiming: the worst carried cycle or the
 * channel-amortized operand skew, on routed latencies), drain
 * bounds and the multicast route trees' busiest-link traffic — and
 * folds them into the cycle count the placed-and-routed kernel
 * should sustain:
 *
 *   scheduled = max(sum_p trips_p * max(1, II_p) + fill_p,
 *                   max_link_load)
 *             + sum drains + configuration overhead
 *
 * The throughput term is the steady-state pipeline bound; the link
 * term is the bandwidth bound (a link carrying L words needs at
 * least L cycles).  Because every input is something the machine
 * charges by construction (shared MeshGeometry/MeshRouter), the
 * estimate lands within 1.25x of the mapped cycles on every kernel
 * on the 10x10 evaluation fabric — paper_eval reports the ratio
 * per kernel and its --check-coverage gate enforces the bound.
 */

#ifndef MARIONETTE_MODEL_SCHEDULE_MODEL_H
#define MARIONETTE_MODEL_SCHEDULE_MODEL_H

#include <cstdint>
#include <vector>

#include "sim/types.h"

namespace marionette
{

/** Routed timing of one flattened phase, as the schedule sees it. */
struct ScheduledPhase
{
    /** Generator trip count (after unroll striping). */
    std::uint64_t trips = 0;
    /** Steady-state initiation interval (the route pass's II:
     *  slack-adjusted carried cycles or operand skew); 0 or 1 both
     *  mean fully pipelined. */
    Cycles initiationInterval = 0;
    /** Pipeline fill: the longest feed-forward path latency. */
    Cycles fillLatency = 0;
};

/** Everything the scheduled-cycle estimate consumes. */
struct ScheduleModelInput
{
    std::vector<ScheduledPhase> phases;
    /** Drain-generator trip counts per serial phase boundary. */
    std::vector<Cycles> drainCycles;
    /** Busiest predicted link traffic (multicast route trees). */
    std::uint64_t maxLinkLoad = 0;
    /** Configuration / boot overhead in cycles. */
    Cycles configCycles = 0;
};

/** The scheduled-cycle estimate for one placed-and-routed kernel. */
double scheduledCycleEstimate(const ScheduleModelInput &in);

} // namespace marionette

#endif // MARIONETTE_MODEL_SCHEDULE_MODEL_H

/**
 * @file
 * Backend data model: the placed-and-routed form of a compilation.
 *
 * The backend splits what used to be one monolithic emit step into
 * three passes over explicit intermediate state:
 *
 *   place  FlatPhases -> Mapping      (backend/placement.cc)
 *          Every live DFG node, phase generator and drain generator
 *          gets a PE.  The cost placer consumes the per-phase
 *          netlists built here.
 *
 *   route  Mapping -> RoutePlan       (backend/route.cc)
 *          Every data edge is materialized as its dimension-ordered
 *          mesh path with the exact latency the machine will
 *          charge.  The derived timing — the place pass's phase
 *          timing model on routed latencies (II, pipeline critical
 *          path) and the drain bounds — feeds the emit pass's
 *          timing decisions.
 *
 *   emit   Mapping + RoutePlan -> Program   (emit.cc)
 *          Pure binary construction; no placement decisions left.
 *
 * Only the pass translation units and backend-focused tests include
 * this header (like compiler/pipeline.h, it is internal).
 */

#ifndef MARIONETTE_COMPILER_BACKEND_MAPPING_H
#define MARIONETTE_COMPILER_BACKEND_MAPPING_H

#include <map>
#include <vector>

#include "compiler/compiler.h"
#include "net/mesh.h"
#include "sim/types.h"

namespace marionette
{

/**
 * One data-carrying producer/consumer connection of a phase's
 * netlist, in DFG-node space (placement-independent).  The
 * generator is modelled as the pseudo-producer invalidNode.
 */
struct DataEdge
{
    /** Producing node; invalidNode = the phase's loop generator. */
    NodeId src = invalidNode;
    /** Consuming node. */
    NodeId dst = invalidNode;
    /** Consumer input channel (operand slot 0/1/2). */
    int channel = 0;
    /** True when the edge lies on a loop-carried recurrence cycle:
     *  its latency bounds the phase's initiation interval, so the
     *  placer weighs it far above feed-forward edges. */
    bool recurrence = false;
    /** Words the consumer channel holds at boot; nonzero exactly on
     *  the edges that close a carried cycle (the carried final value
     *  into a consumer of its carried input).  1 on the final
     *  value's own pass-through edge, the carried value's slack on
     *  every other (CarriedValue::slack, pipeline.h): the consumer
     *  runs that many slots ahead.  Set once by the place pass; the
     *  timing model, the route pass's link loads and the emitted
     *  boot injections all read it here. */
    Cycles bootWords = 0;
    /** The word each boot injection carries: the carried seed. */
    Word bootWord = 0;
};

/** Placement of one flattened phase. */
struct PlacedPhase
{
    /** PE running the phase's loop generator. */
    PeId generator = invalidPe;
    /** PE of every live DFG node. */
    std::map<NodeId, PeId> peOf;
    /** The phase's netlist (built by place, routed by route). */
    std::vector<DataEdge> edges;
};

/** The whole kernel's placement. */
struct Mapping
{
    std::vector<PlacedPhase> phases;
    /** Drain generator PEs, one per serial phase boundary. */
    std::vector<PeId> drainPes;
    int pesUsed = 0;
    int nonlinearUsed = 0;
};

/** One routed data edge: the mesh path behind a DataEdge. */
struct RoutedEdge
{
    DataEdge edge;
    PeId srcPe = invalidPe;
    PeId dstPe = invalidPe;
    int hops = 0;
    /** End-to-end mesh latency the machine charges this edge. */
    Cycles latency = 0;
    /** Dimension-ordered waypoints, endpoints included. */
    std::vector<PeId> path;
};

/** Derived timing of one routed phase. */
struct PhaseRoute
{
    std::vector<RoutedEdge> edges;
    /**
     * The steady-state initiation interval the placed pipeline can
     * sustain: its worst carried cycle or its channel-amortized
     * operand skew, whichever binds (PhaseTiming, pipeline.h).
     */
    Cycles recurrenceII = 0;
    /** Longest feed-forward path latency (pipeline fill time). */
    Cycles criticalPathLatency = 0;
    /** Stages on that path (generator excluded). */
    int criticalPathDepth = 0;
    /** Largest single-edge mesh latency in this phase. */
    Cycles maxEdgeLatency = 0;
    /** Memory-touching operators (drain/contention bounds). */
    int memNodes = 0;
};

/** The whole kernel's route plan. */
struct RoutePlan
{
    std::vector<PhaseRoute> phases;
    /**
     * Drain-generator trip counts per serial phase boundary: an
     * upper bound, derived from the routed pipeline shape, on the
     * cycles needed for every in-flight store of the finished
     * phase to land before the next phase's first load issues.
     */
    std::vector<Cycles> drainCycles;
    /**
     * Predicted per-link traversal counts (MeshGeometry::linkIndex
     * layout) of the whole run, from the multicast route trees: a
     * word fanned out from one producer to N consumers traverses
     * each shared link of the union tree once, and every live
     * producer fires exactly trips times per phase.  Matches the
     * cycle-accurate DataMesh's linkLoads() on a fault-free run
     * (asserted by tests).
     */
    std::vector<std::uint64_t> predictedLinkLoads;
    /** max(predictedLinkLoads). */
    std::uint64_t predictedMaxLinkLoad = 0;
};

} // namespace marionette

#endif // MARIONETTE_COMPILER_BACKEND_MAPPING_H

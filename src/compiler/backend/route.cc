/**
 * @file
 * The route pass: Mapping -> RoutePlan.
 *
 * Materializes every data edge of the placed netlist as its
 * dimension-ordered mesh path, with the latency taken from the same
 * MeshGeometry the cycle-accurate DataMesh charges at run time — by
 * construction, a routed edge's latency is what the machine
 * delivers (asserted by the backend unit tests).
 *
 * On the routed latencies the pass evaluates the place pass's own
 * timing model (PhaseTiming, pipeline.h) and derives what the emit
 * pass feeds into its decisions:
 *
 *  - per-phase II: the worst loop-carried cycle (execute + mesh
 *    transit around the carried closure) or the channel-amortized
 *    operand skew, whichever binds — the steady-state initiation
 *    interval the placed pipeline can sustain;
 *
 *  - the feed-forward critical path (pipeline fill) and the
 *    per-boundary *drain* bound: with the routed pipeline's depth,
 *    worst edge latency and memory population known, the
 *    conservative drain between serial phases shrinks from the old
 *    all-operators-serialize guess to a bound derived from channel
 *    depth x pipeline depth x per-stage service — typically an
 *    order of magnitude fewer wasted cycles per phase boundary.
 */

#include <algorithm>
#include <sstream>

#include "compiler/pipeline.h"
#include "net/control_network.h"
#include "net/delay_model.h"

namespace marionette
{

// ------------------------------------------------------------------
// Pass 8: route
// ------------------------------------------------------------------

bool
passRoute(Compilation &cc)
{
    const MachineConfig &config = cc.config;
    MeshGeometry geom(config.rows, config.cols,
                      config.meshHopLatency);
    // Fault-aware routing: the same MeshRouter the machine's
    // DataMesh consults, so a routed edge's detour (and latency) is
    // by construction what the mesh will charge.  Pass-through when
    // the fault plan has no dead links.
    MeshRouter router(geom, config.faults.deadLinks);
    RoutePlan &plan = cc.routes;
    plan.phases.resize(cc.phases.size());

    const Cycles exec = config.executeLatency;
    for (std::size_t p = 0; p < cc.phases.size(); ++p) {
        const FlatPhase &phase = cc.phases[p];
        const PlacedPhase &placed = cc.mapping.phases[p];
        PhaseRoute &route = plan.phases[p];

        for (const DataEdge &e : placed.edges) {
            RoutedEdge r;
            r.edge = e;
            r.srcPe = e.src == invalidNode ? placed.generator
                                           : placed.peOf.at(e.src);
            r.dstPe = placed.peOf.at(e.dst);
            if (router.faulty()) {
                const std::vector<PeId> &path =
                    router.path(r.srcPe, r.dstPe);
                if (path.empty()) {
                    std::ostringstream why;
                    why << "unmappable under faults: dead links "
                           "disconnect PE " << r.srcPe
                        << " from PE " << r.dstPe << " (phase "
                        << p << " data edge)";
                    return cc.fail(kPassRoute, why.str());
                }
                r.hops = router.hops(r.srcPe, r.dstPe);
                r.latency = router.latency(r.srcPe, r.dstPe);
                r.path = path;
            } else {
                r.hops = geom.hops(r.srcPe, r.dstPe);
                r.latency = geom.latency(r.srcPe, r.dstPe);
                r.path = geom.xyPath(r.srcPe, r.dstPe);
            }
            route.maxEdgeLatency =
                std::max(route.maxEdgeLatency, r.latency);
            route.edges.push_back(std::move(r));
        }

        for (NodeId id : phase.liveNodes)
            if (opInfo(phase.body.node(id).op).isMemory)
                ++route.memNodes;

        // Timing: the place pass's model on routed latencies, over
        // PhaseTiming's entities (generator, then live nodes by id).
        const PhaseTiming timing(phase, placed.edges);
        std::vector<PeId> pe_of{placed.generator};
        for (NodeId id : phase.liveNodes)
            pe_of.push_back(placed.peOf.at(id));
        auto routed = [&](int a, int b) {
            const PeId src = pe_of[static_cast<std::size_t>(a)];
            const PeId dst = pe_of[static_cast<std::size_t>(b)];
            return router.faulty() ? router.latency(src, dst)
                                   : geom.latency(src, dst);
        };
        route.recurrenceII = std::max(timing.carriedII(routed, exec),
                                      timing.skewII(routed, exec));
        const PhaseTiming::Fill fill = timing.fill(routed, exec);
        route.criticalPathLatency = fill.latency;
        route.criticalPathDepth = fill.depth;

        // ----------------------------------------------------------
        // Multicast route trees -> predicted per-link loads.
        //
        // The machine sends one word per producer firing and fans
        // it out along the union of the per-consumer paths, so a
        // link shared by several consumers is traversed *once* per
        // firing.  Firing counts are exact: every live producer
        // fires trips times, plus the head start its seeded closing
        // channels allow — extra(n) = min over data in-channels of
        // (boot seeds + extra(producer)), a min-monotone fixpoint
        // (the generator never over-fires).  Fault-free this
        // reproduces DataMesh::linkLoads() word for word (asserted
        // by tests).
        // ----------------------------------------------------------
        {
            if (plan.predictedLinkLoads.empty())
                plan.predictedLinkLoads.assign(
                    static_cast<std::size_t>(geom.numLinks()), 0);

            // Per-consumer-channel seeds: the netlist's boot words.
            std::map<NodeId, std::vector<std::pair<NodeId, Cycles>>>
                in_channels; // dst -> [(src or invalidNode, seeds)]
            for (const RoutedEdge &r : route.edges)
                in_channels[r.edge.dst].emplace_back(r.edge.src,
                                                     r.edge.bootWords);
            std::map<NodeId, std::uint64_t> extra;
            const std::uint64_t kInf = 1u << 30;
            for (NodeId id : phase.liveNodes)
                extra[id] = kInf;
            for (bool changed = true; changed;) {
                changed = false;
                for (auto &[dst, chans] : in_channels) {
                    std::uint64_t best = kInf;
                    for (const auto &[src, seeds] : chans) {
                        const std::uint64_t up =
                            src == invalidNode ? 0 : extra[src];
                        best = std::min(best, seeds + up);
                    }
                    if (chans.empty())
                        best = 0;
                    if (best < extra[dst]) {
                        extra[dst] = best;
                        changed = true;
                    }
                }
            }

            // Group edges by producer; charge the union tree once
            // per firing.
            std::map<NodeId, std::set<int>> tree_links;
            for (const RoutedEdge &r : route.edges) {
                std::set<int> &links = tree_links[r.edge.src];
                for (std::size_t h = 0; h + 1 < r.path.size(); ++h)
                    links.insert(geom.linkIndex(r.path[h],
                                                r.path[h + 1]));
            }
            const std::uint64_t trips =
                static_cast<std::uint64_t>(phase.trips);
            for (const auto &[src, links] : tree_links) {
                std::uint64_t firings = trips;
                if (src != invalidNode) {
                    const std::uint64_t e = extra[src];
                    firings += e >= kInf ? 0 : e;
                }
                for (int link : links)
                    plan.predictedLinkLoads[static_cast<std::size_t>(
                        link)] += firings;
            }
        }

        std::ostringstream note;
        note << "phase " << p << ": " << route.edges.size()
             << " data edge(s), recurrence II ~"
             << route.recurrenceII << " cycles, fill "
             << route.criticalPathLatency << " cycles over "
             << route.criticalPathDepth << " stage(s), worst edge "
             << route.maxEdgeLatency << " cycles";
        cc.report.note(kPassRoute, note.str());
    }

    // Drain bounds: when phase p's generator retires, every channel
    // along the pipeline may hold up to its full depth (8 words);
    // the pipeline flushes stage by stage, each firing serviced
    // within execute + worst mesh transit + memory-port contention.
    // 8 x depth firings bound the last store's issue.
    const int mem_ports = config.scratchpadBanks * 2;
    for (std::size_t p = 0; p + 1 < cc.phases.size(); ++p) {
        const PhaseRoute &route = plan.phases[p];
        Cycles contention =
            route.memNodes > 0
                ? static_cast<Cycles>(
                      (route.memNodes + mem_ports - 1) / mem_ports)
                : 0;
        Cycles per_firing = config.executeLatency +
                            route.maxEdgeLatency + contention + 2;
        Cycles routed =
            64 +
            8 *
                static_cast<Cycles>(
                    std::max(1, route.criticalPathDepth)) *
                per_firing +
            8 * static_cast<Cycles>(route.memNodes) *
                (contention + 1);
        plan.drainCycles.push_back(std::max<Cycles>(128, routed));
    }
    if (!plan.drainCycles.empty()) {
        std::ostringstream note;
        note << plan.drainCycles.size()
             << " phase boundar(ies), drain";
        for (Cycles d : plan.drainCycles)
            note << " " << d;
        // Control emissions ride the dedicated CS-Benes network
        // when present (1 cycle; the standard-cell DelayModel gives
        // the pipelined estimate for the record) and fall back to
        // the data mesh's worst case otherwise (the Fig. 12
        // ablation).
        note << " cycle(s); control latency "
             << (config.features.controlNetwork
                     ? ControlNetwork::latency()
                     : std::max<Cycles>(1, geom.maxLatency()))
             << " (DelayModel: "
             << controlNetworkLatencyCycles(
                    config.numPes(), config.clockHz / 1e9)
             << " pipelined)";
        cc.report.note(kPassRoute, note.str());
    }

    for (std::uint64_t load : plan.predictedLinkLoads)
        plan.predictedMaxLinkLoad =
            std::max(plan.predictedMaxLinkLoad, load);
    if (plan.predictedMaxLinkLoad > 0) {
        std::ostringstream note;
        note << "multicast route trees predict max link load "
             << plan.predictedMaxLinkLoad << " word(s)";
        cc.report.note(kPassRoute, note.str());
    }
    return true;
}

} // namespace marionette

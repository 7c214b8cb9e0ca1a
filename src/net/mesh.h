/**
 * @file
 * Data-plane mesh network.
 *
 * The data flow plane interconnects PEs with a 2-D mesh using
 * dimension-ordered (XY) routing (paper Fig. 4d: "Data Mesh
 * Network", 6-cycle corner-to-corner latency on the 4x4 prototype).
 * The functional machine uses it for producer/consumer transfers
 * between non-adjacent PEs; the performance models query hop
 * latencies from it.
 *
 * The pure geometry — hop counts, end-to-end latencies and the
 * dimension-ordered paths themselves — lives in MeshGeometry, a
 * plain value type the compiler backend shares with the machine:
 * the placement pass scores candidate mappings with the same
 * distance function the mesh will charge at run time, and the
 * route pass materializes the exact XY link sequence every data
 * edge traverses.
 *
 * In-flight words live in a calendar queue bucketed by arrival
 * cycle, so the machine drains exactly the packets landing this
 * cycle instead of scanning everything pending.  Each send also
 * charges the directed links of its XY path, giving the per-link
 * congestion counters the evaluation reports (max/total link load).
 *
 * Sends are table-driven: DataMesh precomputes every (src, dst)
 * pair's routed hop count and latency when it is built and again
 * when dead links are installed, so a send reads one table entry
 * instead of deriving coordinates.  A multicast marks the links of
 * its route union with per-link stamps (one stamp value per
 * multicast) instead of collecting and sorting them.
 */

#ifndef MARIONETTE_NET_MESH_H
#define MARIONETTE_NET_MESH_H

#include <map>
#include <vector>

#include "sim/event_queue.h"
#include "sim/fault.h"
#include "sim/logging.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace marionette
{

/**
 * Pure 2-D mesh geometry with dimension-ordered (XY) routing.
 *
 * Shared between the cycle-accurate DataMesh and the compiler
 * backend, so placement cost and routed-edge latencies are by
 * construction the latencies the machine delivers.
 */
struct MeshGeometry
{
    int rows = 0;
    int cols = 0;
    Cycles hopLatency = 1;

    MeshGeometry() = default;
    MeshGeometry(int rows_in, int cols_in, Cycles hop_latency)
        : rows(rows_in), cols(cols_in), hopLatency(hop_latency)
    {}

    int numPes() const { return rows * cols; }

    /** Manhattan hop count between two PEs. */
    int hops(PeId src, PeId dst) const;

    /** End-to-end latency: one cycle minimum, hopLatency per hop. */
    Cycles latency(PeId src, PeId dst) const;

    /** Worst-case (corner-to-corner) latency of this mesh. */
    Cycles maxLatency() const;

    /**
     * The dimension-ordered route from @p src to @p dst: every PE
     * the packet passes through, endpoints included (column-first,
     * then row — "XY").  Size is hops(src, dst) + 1.
     */
    std::vector<PeId> xyPath(PeId src, PeId dst) const;

    /** Directed mesh links (each adjacent PE pair, both ways). */
    int numLinks() const;

    /** Store @p at's mesh neighbours in @p out in the fixed east,
     *  west, south, north order (the routers' search order); returns
     *  how many there are. */
    int neighbors(PeId at, PeId (&out)[4]) const;

    /**
     * Dense index of the directed link @p from -> @p to; the two
     * PEs must be mesh-adjacent.  Used for per-link load counters.
     */
    int linkIndex(PeId from, PeId to) const;

    /**
     * Call @p fn(linkIndex(a, b)) for every hop a -> b of
     * xyPath(@p src, @p dst), in order, stepping the coordinates in
     * place: no path is built and no hop is re-checked for
     * adjacency (the machine charges link loads this way on every
     * send).  Uses linkIndex()'s layout:
     * [east | west | south | north] blocks, each edge numbered by
     * its row-major west or north end.
     */
    template <typename F>
    void
    forEachXyLink(PeId src, PeId dst, F &&fn) const
    {
        const int h = rows * (cols - 1);
        const int v = cols * (rows - 1);
        int r = src / cols, c = src % cols;
        const int dr = dst / cols, dc = dst % cols;
        for (; c < dc; ++c)
            fn(r * (cols - 1) + c);
        for (; c > dc; --c)
            fn(h + r * (cols - 1) + c - 1);
        for (; r < dr; ++r)
            fn(2 * h + r * cols + c);
        for (; r > dr; --r)
            fn(2 * h + v + (r - 1) * cols + c);
    }
};

/**
 * Fault-aware routing over a MeshGeometry.
 *
 * The single source of truth for "which path does a word take when
 * links are down", shared by the cycle-accurate DataMesh and the
 * compiler's route pass so a routed edge's latency is still, by
 * construction, what the machine charges.  Routing policy:
 *
 *  - with no dead links the router is pass-through: XY paths and
 *    latencies, bit-identical to the fault-free mesh;
 *  - a source-destination pair whose XY path avoids every dead
 *    link keeps its XY route (healthy traffic is undisturbed);
 *  - otherwise the shortest detour is found by deterministic BFS
 *    (fixed east/west/south/north expansion order) over the intact
 *    links; latency is hopLatency per hop of the detour;
 *  - when the dead links disconnect the pair there is no route:
 *    path() is empty and latency() returns 0 (a healthy latency is
 *    always >= 1).  The machine drops such words and the watchdog
 *    reports them; the compiler rejects the mapping.
 *
 * Paths are memoized per (src, dst); not thread-safe — each machine
 * and each compilation owns its router.
 */
class MeshRouter
{
  public:
    MeshRouter() = default;
    MeshRouter(const MeshGeometry &geom,
               const std::vector<DeadLink> &dead_links);

    /** True when any link is dead (the non-pass-through mode). */
    bool faulty() const { return faulty_; }

    /** Is the directed link @p from -> @p to down?  (Links die in
     *  both directions.)  @p from and @p to must be adjacent. */
    bool linkDead(PeId from, PeId to) const;

    /** The route from @p src to @p dst avoiding dead links; empty
     *  when the pair is disconnected.  Self-sends route as the
     *  trivial [src] path.  Only valid while the router lives. */
    const std::vector<PeId> &path(PeId src, PeId dst);

    /** End-to-end latency of path(); 0 when disconnected. */
    Cycles latency(PeId src, PeId dst);

    /** Hop count of path(); -1 when disconnected. */
    int hops(PeId src, PeId dst);

    const MeshGeometry &geometry() const { return geom_; }

  private:
    MeshGeometry geom_;
    bool faulty_ = false;
    /** Dead flag per directed link (geom_.linkIndex layout). */
    std::vector<std::uint8_t> linkDead_;
    /** Memoized paths keyed by src * numPes + dst. */
    std::map<int, std::vector<PeId>> paths_;
};

/** A word in flight on the mesh. */
struct MeshPacket
{
    PeId src = invalidPe;
    PeId dst = invalidPe;
    Word value = 0;
    /** Cycle at which the packet reaches the destination. */
    Cycle arrival = 0;
    /** Logical channel (output port index at the consumer). */
    int channel = 0;
};

/** 2-D mesh with XY routing and per-hop latency. */
class DataMesh
{
  public:
    /**
     * @param rows array rows.
     * @param cols array columns.
     * @param hop_latency cycles per router hop.
     */
    DataMesh(int rows, int cols, Cycles hop_latency);

    int rows() const { return geom_.rows; }
    int cols() const { return geom_.cols; }

    /** The mesh's geometry (shared with the compiler backend). */
    const MeshGeometry &geometry() const { return geom_; }

    /**
     * Apply a dead-link set (kernel-independent hardware state; the
     * machine installs its config's fault plan at construction).
     * With dead links installed, send() detours words around them
     * on the same deterministic routes MeshRouter hands the
     * compiler, and *drops* words whose endpoints the dead links
     * disconnect — see droppedWords().
     */
    void setDeadLinks(const std::vector<DeadLink> &dead_links);

    /** True when a dead-link set is installed. */
    bool faulty() const { return router_.faulty(); }

    /** Words dropped because dead links disconnected their
     *  endpoints (never nonzero on a healthy mesh). */
    std::uint64_t droppedWords() const { return dropped_; }

    /** Endpoints of the most recently dropped word (diagnostics);
     *  invalidPe when nothing was dropped. */
    PeId lastDropSrc() const { return lastDropSrc_; }
    PeId lastDropDst() const { return lastDropDst_; }

    /**
     * Fault-aware end-to-end latency: geometry latency on a healthy
     * mesh, detour latency with dead links installed, 0 when the
     * pair is disconnected.  What send() actually charges, read
     * from the precomputed pair table.
     */
    Cycles routedLatency(PeId src, PeId dst) const
    {
        return route(src, dst).latency;
    }

    /** Manhattan hop count between two PEs. */
    int hops(PeId src, PeId dst) const
    { return geom_.hops(src, dst); }

    /** End-to-end latency: one cycle minimum, hop_latency per hop. */
    Cycles latency(PeId src, PeId dst) const
    { return geom_.latency(src, dst); }

    /** Worst-case (corner-to-corner) latency of this mesh. */
    Cycles maxLatency() const { return geom_.maxLatency(); }

    /**
     * Inject a word at @p now; it becomes visible to the consumer at
     * now + latency(src, dst).
     */
    void send(Cycle now, PeId src, PeId dst, Word value,
              int channel = 0);

    /**
     * Inject one word fanned out to several destinations as a
     * multicast: each destination receives the word at its own
     * routed latency (identical arrival cycles and ordering to N
     * unicast send()s), but the link-load profile charges every
     * directed link of the *union* of the routes exactly once —
     * the word physically traverses each shared mesh segment a
     * single time and forks at the branch routers.  Destinations
     * whose endpoints dead links disconnect are dropped and counted
     * individually, exactly as send() would.  `packets` counts the
     * delivered destinations; `hop_traversals` counts the union
     * links.  A single-destination multicast is bit-identical to
     * send().
     */
    void multicast(Cycle now, PeId src,
                   const std::vector<std::pair<PeId, int>> &dests,
                   Word value);

    /**
     * Deliver every packet arriving at cycle @p now (all
     * destinations) by calling @p fn(packet), in send order.  The
     * machine's hot path; O(arrivals this cycle).  Per-destination,
     * per-channel packets arrive in send order, which preserves the
     * fabric's FIFO channel ordering.
     */
    template <typename F>
    void
    deliverArrivals(Cycle now, F &&fn)
    {
        flight_.drain(now, std::forward<F>(fn));
    }

    /**
     * Pop every packet that has arrived at @p dst by cycle @p now.
     * Compatibility scan for tests; the machine uses
     * deliverArrivals().
     */
    std::vector<MeshPacket> deliver(Cycle now, PeId dst);

    /** Packets still in flight (for drain/quiesce checks). */
    std::size_t inFlight() const { return flight_.size(); }

    /** Drop all in-flight packets (kernel-boundary reset). */
    void clearInFlight() { flight_.clear(); }

    /** Cumulative traversals of every directed link — like every
     *  other statistic, over the machine's lifetime (sweeps run
     *  one kernel per machine, so per-kernel profiles fall out). */
    const std::vector<std::uint64_t> &linkLoads() const
    { return linkLoads_; }

    /** Reset the per-link counters and their max stat together
     *  (keeps max_link_load == max(linkLoads())). */
    void clearLinkLoads();

    const StatGroup &stats() const { return stats_; }

    /** Zero every mesh statistic, including the per-link loads the
     *  max_link_load stat is derived from (persistent machines:
     *  ServeCore resets stats at request boundaries). */
    void resetStats()
    {
        clearLinkLoads();
        stats_.resetAll(); // last: clearLinkLoads touches the max.
    }

    /** Deep copy of the mesh's run-time state (snapshots). */
    struct State
    {
        Cycle flightDrained = 0;
        std::vector<std::pair<Cycle, MeshPacket>> flight;
        std::vector<std::uint64_t> linkLoads;
        std::uint64_t dropped = 0;
        PeId lastDropSrc = invalidPe;
        PeId lastDropDst = invalidPe;
        StatGroupState stats;
    };

    State saveState() const;
    void restoreState(const State &state);

  private:
    /** Precomputed send geometry of one (src, dst) pair. */
    struct PairRoute
    {
        /** Routed end-to-end latency; 0 when dead links disconnect
         *  the pair. */
        std::uint16_t latency = 0;
        /** Routed hop count (the links a unicast charges). */
        std::uint16_t hops = 0;
    };

    /** Fill routes_ from the geometry and the installed dead links:
     *  every pair's shortest intact path, which is the XY route
     *  whenever that avoids the dead links (MeshRouter's policy). */
    void buildRoutes();

    const PairRoute &
    route(PeId src, PeId dst) const
    {
        const int n = geom_.numPes();
        MARIONETTE_ASSERT(src >= 0 && src < n && dst >= 0 && dst < n,
                          "mesh send %d -> %d out of range", src, dst);
        return routes_[static_cast<std::size_t>(src * n + dst)];
    }

    /** Call @p fn(link) for every directed link of the routed path
     *  from @p src to @p dst (connected pairs only). */
    template <typename F>
    void
    forEachRouteLink(PeId src, PeId dst, F &&fn)
    {
        if (!router_.faulty()) {
            geom_.forEachXyLink(src, dst, fn);
            return;
        }
        const std::vector<PeId> &path = router_.path(src, dst);
        for (std::size_t i = 0; i + 1 < path.size(); ++i)
            fn(geom_.linkIndex(path[i], path[i + 1]));
    }

    /** One more traversal of @p link. */
    void
    chargeLink(int link)
    {
        std::uint64_t &load = linkLoads_[static_cast<std::size_t>(link)];
        ++load;
        if (load > statMaxLinkLoad_.value())
            statMaxLinkLoad_.set(load);
    }

    /** Count a word the dead links leave no route for. */
    void dropWord(PeId src, PeId dst);

    /** Put a word for @p dst on the wire, arriving after @p latency. */
    void schedule(Cycle now, Cycles latency, PeId src, PeId dst,
                  Word value, int channel);

    MeshGeometry geom_;
    StatGroup stats_;
    CalendarQueue<MeshPacket> flight_;
    /** Traversal count per directed link (XY-routed). */
    std::vector<std::uint64_t> linkLoads_;
    /** Fault-aware router; pass-through until setDeadLinks(). */
    MeshRouter router_;
    /** Send geometry per pair, at src * numPes + dst. */
    std::vector<PairRoute> routes_;
    /** multicast()'s link-union marks: a link belongs to the
     *  current multicast's union when its stamp equals stamp_.
     *  Narrow on purpose, so the wrap (every 65,535 multicasts,
     *  where every mark is cleared) is exercised by ordinary runs;
     *  none of this is run-time state a snapshot needs. */
    std::vector<std::uint16_t> linkStamp_;
    std::uint16_t stamp_ = 0;
    std::uint64_t dropped_ = 0;
    PeId lastDropSrc_ = invalidPe;
    PeId lastDropDst_ = invalidPe;
    Stat &statPackets_;
    Stat &statHopTraversals_;
    Stat &statMaxLinkLoad_;
};

} // namespace marionette

#endif // MARIONETTE_NET_MESH_H

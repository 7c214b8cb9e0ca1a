#include "net/mesh.h"

#include <algorithm>
#include <cstdlib>

#include "sim/logging.h"

namespace marionette
{

// ------------------------------------------------------------------
// MeshGeometry
// ------------------------------------------------------------------

int
MeshGeometry::hops(PeId src, PeId dst) const
{
    MARIONETTE_ASSERT(src >= 0 && src < rows * cols,
                      "mesh source %d out of range", src);
    MARIONETTE_ASSERT(dst >= 0 && dst < rows * cols,
                      "mesh destination %d out of range", dst);
    int sr = src / cols, sc = src % cols;
    int dr = dst / cols, dc = dst % cols;
    return std::abs(sr - dr) + std::abs(sc - dc);
}

Cycles
MeshGeometry::latency(PeId src, PeId dst) const
{
    int h = hops(src, dst);
    return std::max<Cycles>(1,
                            static_cast<Cycles>(h) * hopLatency);
}

Cycles
MeshGeometry::maxLatency() const
{
    return static_cast<Cycles>(rows - 1 + cols - 1) * hopLatency;
}

std::vector<PeId>
MeshGeometry::xyPath(PeId src, PeId dst) const
{
    MARIONETTE_ASSERT(src >= 0 && src < rows * cols,
                      "mesh source %d out of range", src);
    MARIONETTE_ASSERT(dst >= 0 && dst < rows * cols,
                      "mesh destination %d out of range", dst);
    std::vector<PeId> path;
    int r = src / cols, c = src % cols;
    int dr = dst / cols, dc = dst % cols;
    path.push_back(src);
    // Dimension order: traverse the row (X) first, then the column.
    while (c != dc) {
        c += c < dc ? 1 : -1;
        path.push_back(static_cast<PeId>(r * cols + c));
    }
    while (r != dr) {
        r += r < dr ? 1 : -1;
        path.push_back(static_cast<PeId>(r * cols + c));
    }
    return path;
}

int
MeshGeometry::numLinks() const
{
    // Directed horizontal + vertical links.
    return 2 * (rows * (cols - 1) + cols * (rows - 1));
}

int
MeshGeometry::linkIndex(PeId from, PeId to) const
{
    MARIONETTE_ASSERT(hops(from, to) == 1,
                      "link %d -> %d is not a mesh edge", from, to);
    int fr = from / cols, fc = from % cols;
    int tc = to % cols;
    // Layout: [east | west | south | north] link blocks.
    const int h = rows * (cols - 1);
    const int v = cols * (rows - 1);
    if (fr == to / cols) {
        // Horizontal: (row, min col) identifies the edge.
        int edge = fr * (cols - 1) + std::min(fc, tc);
        return tc > fc ? edge : h + edge;
    }
    // Vertical: (min row, col) identifies the edge.
    int edge = std::min(fr, to / cols) * cols + fc;
    return to > from ? 2 * h + edge : 2 * h + v + edge;
}

// ------------------------------------------------------------------
// MeshRouter
// ------------------------------------------------------------------

MeshRouter::MeshRouter(const MeshGeometry &geom,
                       const std::vector<DeadLink> &dead_links)
    : geom_(geom)
{
    if (dead_links.empty())
        return;
    faulty_ = true;
    linkDead_.assign(static_cast<std::size_t>(geom_.numLinks()), 0);
    for (const DeadLink &l : dead_links) {
        // Both directions of the physical link go down.
        linkDead_[static_cast<std::size_t>(
            geom_.linkIndex(l.a, l.b))] = 1;
        linkDead_[static_cast<std::size_t>(
            geom_.linkIndex(l.b, l.a))] = 1;
    }
}

bool
MeshRouter::linkDead(PeId from, PeId to) const
{
    if (!faulty_)
        return false;
    return linkDead_[static_cast<std::size_t>(
               geom_.linkIndex(from, to))] != 0;
}

const std::vector<PeId> &
MeshRouter::path(PeId src, PeId dst)
{
    const int key = src * geom_.numPes() + dst;
    auto it = paths_.find(key);
    if (it != paths_.end())
        return it->second;

    std::vector<PeId> &out = paths_[key];
    // Healthy pairs keep their dimension-ordered route so faulted
    // configs disturb only the traffic that actually crosses a
    // dead link.
    std::vector<PeId> xy = geom_.xyPath(src, dst);
    bool clean = true;
    for (std::size_t i = 0; i + 1 < xy.size() && clean; ++i)
        clean = !linkDead(xy[i], xy[i + 1]);
    if (clean) {
        out = std::move(xy);
        return out;
    }

    // Deterministic BFS over the intact links: fixed expansion
    // order (east, west, south, north), first-found shortest path.
    const int num_pes = geom_.numPes();
    std::vector<PeId> parent(static_cast<std::size_t>(num_pes),
                             invalidPe);
    std::vector<std::uint8_t> seen(
        static_cast<std::size_t>(num_pes), 0);
    std::vector<PeId> queue;
    queue.reserve(static_cast<std::size_t>(num_pes));
    queue.push_back(src);
    seen[static_cast<std::size_t>(src)] = 1;
    const int cols = geom_.cols;
    for (std::size_t head = 0; head < queue.size(); ++head) {
        PeId at = queue[head];
        if (at == dst)
            break;
        int r = at / cols, c = at % cols;
        PeId peers[4];
        int n = 0;
        if (c + 1 < cols)
            peers[n++] = at + 1;
        if (c > 0)
            peers[n++] = at - 1;
        if (r + 1 < geom_.rows)
            peers[n++] = at + cols;
        if (r > 0)
            peers[n++] = at - cols;
        for (int k = 0; k < n; ++k) {
            PeId next = peers[k];
            if (seen[static_cast<std::size_t>(next)] ||
                linkDead(at, next))
                continue;
            seen[static_cast<std::size_t>(next)] = 1;
            parent[static_cast<std::size_t>(next)] = at;
            queue.push_back(next);
        }
    }
    if (!seen[static_cast<std::size_t>(dst)])
        return out; // disconnected: empty path.
    for (PeId at = dst; at != src;
         at = parent[static_cast<std::size_t>(at)])
        out.push_back(at);
    out.push_back(src);
    std::reverse(out.begin(), out.end());
    return out;
}

Cycles
MeshRouter::latency(PeId src, PeId dst)
{
    const std::vector<PeId> &p = path(src, dst);
    if (p.empty())
        return 0;
    return std::max<Cycles>(
        1, static_cast<Cycles>(p.size() - 1) * geom_.hopLatency);
}

int
MeshRouter::hops(PeId src, PeId dst)
{
    const std::vector<PeId> &p = path(src, dst);
    return p.empty() ? -1 : static_cast<int>(p.size()) - 1;
}

// ------------------------------------------------------------------
// DataMesh
// ------------------------------------------------------------------

DataMesh::DataMesh(int rows, int cols, Cycles hop_latency)
    : geom_(rows, cols, hop_latency),
      stats_("datamesh"),
      flight_(static_cast<Cycles>(rows + cols) * hop_latency + 2),
      linkLoads_(static_cast<std::size_t>(geom_.numLinks()), 0),
      statPackets_(stats_.stat("packets")),
      statHopTraversals_(stats_.stat("hop_traversals")),
      statMaxLinkLoad_(stats_.stat("max_link_load"))
{
    MARIONETTE_ASSERT(rows > 0 && cols > 0,
                      "mesh dimensions must be positive");
    MARIONETTE_ASSERT(hop_latency >= 1, "hop latency must be >= 1");
}

void
DataMesh::setDeadLinks(const std::vector<DeadLink> &dead_links)
{
    router_ = MeshRouter(geom_, dead_links);
}

void
DataMesh::send(Cycle now, PeId src, PeId dst, Word value,
               int channel)
{
    if (router_.faulty()) {
        // Fault mode: route on the shared MeshRouter's detours —
        // the exact paths and latencies the compiler's route pass
        // planned with.  Words whose endpoints the dead links
        // disconnect are dropped (and counted): the physical
        // router has nowhere to forward them, and the machine's
        // watchdog turns the loss into a structured deadlock error.
        const std::vector<PeId> &path = router_.path(src, dst);
        if (path.empty()) {
            ++dropped_;
            lastDropSrc_ = src;
            lastDropDst_ = dst;
            stats_.stat("dropped_words").inc();
            return;
        }
        MeshPacket pkt;
        pkt.src = src;
        pkt.dst = dst;
        pkt.value = value;
        pkt.channel = channel;
        pkt.arrival = now + router_.latency(src, dst);
        flight_.schedule(pkt.arrival, pkt);
        statPackets_.inc();
        statHopTraversals_.inc(
            static_cast<std::uint64_t>(path.size() - 1));
        for (std::size_t i = 0; i + 1 < path.size(); ++i) {
            std::uint64_t &load =
                linkLoads_[static_cast<std::size_t>(
                    geom_.linkIndex(path[i], path[i + 1]))];
            ++load;
            if (load > statMaxLinkLoad_.value())
                statMaxLinkLoad_.set(load);
        }
        return;
    }

    MeshPacket pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.value = value;
    pkt.channel = channel;
    pkt.arrival = now + latency(src, dst);
    flight_.schedule(pkt.arrival, pkt);
    statPackets_.inc();
    statHopTraversals_.inc(static_cast<std::uint64_t>(hops(src, dst)));
    // Charge every directed link of the XY route (congestion
    // profile).
    geom_.forEachXyLink(src, dst, [&](int link) {
        std::uint64_t &load =
            linkLoads_[static_cast<std::size_t>(link)];
        ++load;
        if (load > statMaxLinkLoad_.value())
            statMaxLinkLoad_.set(load);
    });
}

void
DataMesh::multicast(Cycle now, PeId src,
                    const std::vector<std::pair<PeId, int>> &dests,
                    Word value)
{
    if (dests.size() == 1) {
        // Degenerate multicast: the unicast fast path is
        // bit-identical (same packet, same charges).
        send(now, src, dests.front().first, value,
             dests.front().second);
        return;
    }

    // Union of directed link indices over every destination's
    // route; small sorted vector (fanout is a handful of replicas).
    treeLinks_.clear();
    for (const auto &[dst, channel] : dests) {
        Cycles lat;
        if (router_.faulty()) {
            const std::vector<PeId> &path = router_.path(src, dst);
            if (path.empty()) {
                ++dropped_;
                lastDropSrc_ = src;
                lastDropDst_ = dst;
                stats_.stat("dropped_words").inc();
                continue;
            }
            for (std::size_t i = 0; i + 1 < path.size(); ++i)
                treeLinks_.push_back(
                    geom_.linkIndex(path[i], path[i + 1]));
            lat = router_.latency(src, dst);
        } else {
            geom_.forEachXyLink(src, dst, [this](int link) {
                treeLinks_.push_back(link);
            });
            lat = latency(src, dst);
        }
        MeshPacket pkt;
        pkt.src = src;
        pkt.dst = dst;
        pkt.value = value;
        pkt.channel = channel;
        pkt.arrival = now + lat;
        flight_.schedule(pkt.arrival, pkt);
        statPackets_.inc();
    }
    std::sort(treeLinks_.begin(), treeLinks_.end());
    treeLinks_.erase(
        std::unique(treeLinks_.begin(), treeLinks_.end()),
        treeLinks_.end());
    statHopTraversals_.inc(
        static_cast<std::uint64_t>(treeLinks_.size()));
    for (int link : treeLinks_) {
        std::uint64_t &load =
            linkLoads_[static_cast<std::size_t>(link)];
        ++load;
        if (load > statMaxLinkLoad_.value())
            statMaxLinkLoad_.set(load);
    }
}

void
DataMesh::clearLinkLoads()
{
    std::fill(linkLoads_.begin(), linkLoads_.end(), 0);
    statMaxLinkLoad_.set(0);
}

DataMesh::State
DataMesh::saveState() const
{
    State state;
    state.flightDrained = flight_.drained();
    state.flight = flight_.snapshotEvents();
    state.linkLoads = linkLoads_;
    state.dropped = dropped_;
    state.lastDropSrc = lastDropSrc_;
    state.lastDropDst = lastDropDst_;
    state.stats = stats_.captureState();
    return state;
}

void
DataMesh::restoreState(const State &state)
{
    flight_.restoreEvents(state.flightDrained, state.flight);
    MARIONETTE_ASSERT(state.linkLoads.size() == linkLoads_.size(),
                      "snapshot mesh geometry mismatch");
    linkLoads_ = state.linkLoads;
    dropped_ = state.dropped;
    lastDropSrc_ = state.lastDropSrc;
    lastDropDst_ = state.lastDropDst;
    stats_.restoreState(state.stats);
}

std::vector<MeshPacket>
DataMesh::deliver(Cycle now, PeId dst)
{
    std::vector<MeshPacket> out =
        flight_.extractIf([&](const MeshPacket &pkt) {
            return pkt.dst == dst && pkt.arrival <= now;
        });
    std::sort(out.begin(), out.end(),
              [](const MeshPacket &a, const MeshPacket &b) {
                  return a.arrival < b.arrival;
              });
    return out;
}

} // namespace marionette

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
MeshGeometry::neighbors(PeId at, PeId (&out)[4]) const
{
    const int r = at / cols, c = at % cols;
    int n = 0;
    if (c + 1 < cols)
        out[n++] = at + 1;
    if (c > 0)
        out[n++] = at - 1;
    if (r + 1 < rows)
        out[n++] = at + cols;
    if (r > 0)
        out[n++] = at - cols;
    return n;
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
    for (std::size_t head = 0; head < queue.size(); ++head) {
        PeId at = queue[head];
        if (at == dst)
            break;
        PeId peers[4];
        const int n = geom_.neighbors(at, peers);
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
      linkStamp_(static_cast<std::size_t>(geom_.numLinks()), 0),
      statPackets_(stats_.stat("packets")),
      statHopTraversals_(stats_.stat("hop_traversals")),
      statMaxLinkLoad_(stats_.stat("max_link_load"))
{
    MARIONETTE_ASSERT(rows > 0 && cols > 0,
                      "mesh dimensions must be positive");
    MARIONETTE_ASSERT(hop_latency >= 1, "hop latency must be >= 1");
    buildRoutes();
}

void
DataMesh::setDeadLinks(const std::vector<DeadLink> &dead_links)
{
    router_ = MeshRouter(geom_, dead_links);
    buildRoutes();
}

void
DataMesh::buildRoutes()
{
    const int n = geom_.numPes();
    routes_.assign(static_cast<std::size_t>(n) *
                       static_cast<std::size_t>(n),
                   PairRoute{});
    auto store = [&](PeId src, PeId dst, int hops) {
        const Cycles latency = std::max<Cycles>(
            1, static_cast<Cycles>(hops) * geom_.hopLatency);
        MARIONETTE_ASSERT(latency <= 0xffff,
                          "mesh latency %llu exceeds the route table",
                          static_cast<unsigned long long>(latency));
        routes_[static_cast<std::size_t>(src * n + dst)] =
            PairRoute{static_cast<std::uint16_t>(latency),
                      static_cast<std::uint16_t>(hops)};
    };
    if (!router_.faulty()) {
        // Every pair takes its XY route: the Manhattan distance.
        std::vector<int> row(static_cast<std::size_t>(n));
        std::vector<int> col(static_cast<std::size_t>(n));
        for (PeId p = 0; p < n; ++p) {
            row[static_cast<std::size_t>(p)] = p / geom_.cols;
            col[static_cast<std::size_t>(p)] = p % geom_.cols;
        }
        for (std::size_t src = 0; src < row.size(); ++src)
            for (std::size_t dst = 0; dst < row.size(); ++dst)
                store(static_cast<PeId>(src), static_cast<PeId>(dst),
                      std::abs(row[src] - row[dst]) +
                          std::abs(col[src] - col[dst]));
        return;
    }
    // With dead links a pair keeps its XY route when that avoids
    // them and takes a shortest detour otherwise, so its hop count
    // is the shortest-path distance over the intact links: one
    // breadth-first search per source.  Unreached pairs keep
    // latency 0 (disconnected).
    std::vector<int> dist(static_cast<std::size_t>(n));
    std::vector<PeId> queue;
    queue.reserve(static_cast<std::size_t>(n));
    for (PeId src = 0; src < n; ++src) {
        std::fill(dist.begin(), dist.end(), -1);
        dist[static_cast<std::size_t>(src)] = 0;
        queue.assign(1, src);
        for (std::size_t head = 0; head < queue.size(); ++head) {
            const PeId at = queue[head];
            PeId peers[4];
            const int k = geom_.neighbors(at, peers);
            for (int i = 0; i < k; ++i) {
                int &d = dist[static_cast<std::size_t>(peers[i])];
                if (d >= 0 || router_.linkDead(at, peers[i]))
                    continue;
                d = dist[static_cast<std::size_t>(at)] + 1;
                queue.push_back(peers[i]);
            }
        }
        for (PeId dst = 0; dst < n; ++dst)
            if (dist[static_cast<std::size_t>(dst)] >= 0)
                store(src, dst, dist[static_cast<std::size_t>(dst)]);
    }
}

void
DataMesh::dropWord(PeId src, PeId dst)
{
    // The physical router has nowhere to forward the word; the
    // machine's watchdog turns the loss into a structured deadlock
    // error.
    ++dropped_;
    lastDropSrc_ = src;
    lastDropDst_ = dst;
    stats_.stat("dropped_words").inc();
}

void
DataMesh::schedule(Cycle now, Cycles latency, PeId src, PeId dst,
                   Word value, int channel)
{
    MeshPacket pkt;
    pkt.src = src;
    pkt.dst = dst;
    pkt.value = value;
    pkt.channel = channel;
    pkt.arrival = now + latency;
    flight_.schedule(pkt.arrival, pkt);
    statPackets_.inc();
}

void
DataMesh::send(Cycle now, PeId src, PeId dst, Word value,
               int channel)
{
    // With dead links installed the word follows the shared
    // MeshRouter's detour — the exact path and latency the
    // compiler's route pass planned with — or is dropped when the
    // pair is disconnected.
    const PairRoute &r = route(src, dst);
    if (r.latency == 0) {
        dropWord(src, dst);
        return;
    }
    schedule(now, r.latency, src, dst, value, channel);
    statHopTraversals_.inc(r.hops);
    // Charge every directed link of the route (congestion profile).
    forEachRouteLink(src, dst, [this](int link) { chargeLink(link); });
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

    // A fresh stamp for this multicast's link union.  When the
    // counter wraps, marks left by earlier multicasts could collide
    // with the new values, so every mark is cleared first.
    if (++stamp_ == 0) {
        std::fill(linkStamp_.begin(), linkStamp_.end(), 0);
        stamp_ = 1;
    }
    std::uint64_t union_links = 0;
    auto mark = [&](int link) {
        std::uint16_t &s = linkStamp_[static_cast<std::size_t>(link)];
        if (s == stamp_)
            return; // already charged by another destination.
        s = stamp_;
        ++union_links;
        chargeLink(link);
    };
    for (const auto &[dst, channel] : dests) {
        const PairRoute &r = route(src, dst);
        if (r.latency == 0) {
            dropWord(src, dst);
            continue;
        }
        forEachRouteLink(src, dst, mark);
        schedule(now, r.latency, src, dst, value, channel);
    }
    statHopTraversals_.inc(union_links);
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

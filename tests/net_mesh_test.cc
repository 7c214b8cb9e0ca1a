/**
 * @file
 * Data-mesh tests: XY hop counts, the Fig. 4d latency property
 * (6 cycles corner-to-corner on 4x4), in-order delivery, the
 * precomputed send geometry, and the multicast link union.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "net/mesh.h"
#include "sim/rng.h"

namespace marionette
{
namespace
{

TEST(Mesh, HopCountsAreManhattan)
{
    DataMesh mesh(4, 4, 1);
    EXPECT_EQ(mesh.hops(0, 0), 0);
    EXPECT_EQ(mesh.hops(0, 3), 3);
    EXPECT_EQ(mesh.hops(0, 15), 6); // corner to corner.
    EXPECT_EQ(mesh.hops(5, 10), 2);
}

TEST(Mesh, CornerToCornerMatchesPaper)
{
    DataMesh mesh(4, 4, 1);
    // Fig. 4d: "6 cycle latency through data network".
    EXPECT_EQ(mesh.maxLatency(), 6u);
    EXPECT_EQ(mesh.latency(0, 15), 6u);
}

TEST(Mesh, SelfSendStillTakesACycle)
{
    DataMesh mesh(4, 4, 1);
    EXPECT_EQ(mesh.latency(5, 5), 1u);
}

TEST(Mesh, HopLatencyScales)
{
    DataMesh mesh(4, 4, 2);
    EXPECT_EQ(mesh.latency(0, 15), 12u);
}

TEST(Mesh, DeliveryAtArrivalCycle)
{
    DataMesh mesh(4, 4, 1);
    mesh.send(10, 0, 3, 42);
    EXPECT_TRUE(mesh.deliver(12, 3).empty()); // 3 hops -> t=13.
    auto arrived = mesh.deliver(13, 3);
    ASSERT_EQ(arrived.size(), 1u);
    EXPECT_EQ(arrived[0].value, 42);
    EXPECT_EQ(mesh.inFlight(), 0u);
}

TEST(Mesh, DeliveryFiltersByDestination)
{
    DataMesh mesh(4, 4, 1);
    mesh.send(0, 0, 1, 1);
    mesh.send(0, 0, 2, 2);
    auto at1 = mesh.deliver(100, 1);
    ASSERT_EQ(at1.size(), 1u);
    EXPECT_EQ(at1[0].value, 1);
    EXPECT_EQ(mesh.inFlight(), 1u);
}

TEST(Mesh, DeliverySortsByArrival)
{
    DataMesh mesh(4, 4, 1);
    mesh.send(5, 12, 15, 100); // farther, sent earlier.
    mesh.send(6, 14, 15, 200); // nearer, sent later.
    auto arrived = mesh.deliver(100, 15);
    ASSERT_EQ(arrived.size(), 2u);
    EXPECT_LE(arrived[0].arrival, arrived[1].arrival);
}

TEST(Mesh, ChannelTagRidesAlong)
{
    DataMesh mesh(2, 2, 1);
    mesh.send(0, 0, 3, 7, /*channel=*/2);
    auto arrived = mesh.deliver(10, 3);
    ASSERT_EQ(arrived.size(), 1u);
    EXPECT_EQ(arrived[0].channel, 2);
}

TEST(Mesh, StatsCountTraffic)
{
    DataMesh mesh(4, 4, 1);
    mesh.send(0, 0, 15, 1);
    mesh.send(0, 0, 15, 2);
    EXPECT_EQ(mesh.stats().value("packets"), 2u);
    EXPECT_EQ(mesh.stats().value("hop_traversals"), 12u);
}

TEST(Mesh, XyLinkWalkMatchesPathLinks)
{
    for (const MeshGeometry &g :
         {MeshGeometry(4, 4, 1), MeshGeometry(3, 7, 1),
          MeshGeometry(10, 10, 1), MeshGeometry(1, 5, 1)}) {
        for (PeId src = 0; src < g.numPes(); ++src)
            for (PeId dst = 0; dst < g.numPes(); ++dst) {
                const std::vector<PeId> path = g.xyPath(src, dst);
                std::vector<int> want;
                for (std::size_t i = 0; i + 1 < path.size(); ++i)
                    want.push_back(g.linkIndex(path[i], path[i + 1]));
                std::vector<int> got;
                g.forEachXyLink(src, dst,
                                [&](int link) { got.push_back(link); });
                EXPECT_EQ(got, want) << src << " -> " << dst;
            }
    }
}

/** The table a send reads equals the router's latency for every
 *  pair, healthy and with dead links (detours and a cut-off PE). */
TEST(Mesh, RoutedLatencyTableMatchesRouter)
{
    const std::vector<DeadLink> dead = {{0, 1}, {0, 4}, {5, 6}, {9, 13}};
    for (Cycles hop : {Cycles{1}, Cycles{2}}) {
        for (const std::vector<DeadLink> &links :
             {std::vector<DeadLink>{}, dead}) {
            DataMesh mesh(4, 4, hop);
            if (!links.empty())
                mesh.setDeadLinks(links);
            MeshRouter router(mesh.geometry(), links);
            for (PeId src = 0; src < 16; ++src)
                for (PeId dst = 0; dst < 16; ++dst)
                    EXPECT_EQ(mesh.routedLatency(src, dst),
                              router.latency(src, dst))
                        << src << " -> " << dst << " hop " << hop;
        }
    }
}

/** What one multicast must charge, derived from MeshRouter paths:
 *  every link of the union of the connected destinations' routes
 *  once, a packet per connected destination, a drop per
 *  disconnected one. */
struct MulticastExpect
{
    std::vector<std::uint64_t> loads;
    std::uint64_t unionLinks = 0;
    std::uint64_t packets = 0;
    std::uint64_t dropped = 0;

    void
    add(const MeshGeometry &g, MeshRouter &router, PeId src,
        const std::vector<std::pair<PeId, int>> &dests)
    {
        if (loads.empty())
            loads.assign(static_cast<std::size_t>(g.numLinks()), 0);
        std::set<int> links;
        for (const auto &[dst, channel] : dests) {
            const std::vector<PeId> &path = router.path(src, dst);
            if (path.empty()) {
                ++dropped;
                continue;
            }
            ++packets;
            for (std::size_t i = 0; i + 1 < path.size(); ++i)
                links.insert(g.linkIndex(path[i], path[i + 1]));
        }
        for (int link : links)
            ++loads[static_cast<std::size_t>(link)];
        unionLinks += links.size();
    }

    void
    check(const DataMesh &mesh) const
    {
        EXPECT_EQ(mesh.linkLoads(), loads);
        EXPECT_EQ(mesh.stats().value("hop_traversals"), unionLinks);
        EXPECT_EQ(mesh.stats().value("packets"), packets);
        EXPECT_EQ(mesh.droppedWords(), dropped);
        EXPECT_EQ(mesh.stats().value("max_link_load"),
                  *std::max_element(loads.begin(), loads.end()));
    }
};

/** Fan-outs whose XY routes share links: hand-picked ones on 4x4,
 *  then seeded random ones (repeats and self-sends included) on
 *  4x4 and 10x10. */
TEST(MeshMulticast, LinkUnionMatchesBruteForce)
{
    using Dests = std::vector<std::pair<PeId, int>>;
    {
        DataMesh mesh(4, 4, 1);
        MeshRouter router(mesh.geometry(), {});
        MulticastExpect want;
        const std::pair<PeId, Dests> fanouts[] = {
            {0, {{3, 0}, {7, 1}, {15, 0}, {12, 2}}}, // row 0 shared.
            {5, {{6, 0}, {7, 0}, {11, 0}, {15, 3}}}, // 5->6->7 shared.
            {15, {{0, 0}, {0, 1}, {15, 0}}},         // same PE twice.
        };
        for (const auto &[src, dests] : fanouts) {
            mesh.multicast(0, src, dests, 7);
            want.add(mesh.geometry(), router, src, dests);
        }
        want.check(mesh);
        // Row 0's first link carries 0's word to 3, 7 and 15 once.
        EXPECT_EQ(mesh.linkLoads()[static_cast<std::size_t>(
                      mesh.geometry().linkIndex(0, 1))],
                  1u);
    }
    for (int dim : {4, 10}) {
        DataMesh mesh(dim, dim, 1);
        MeshRouter router(mesh.geometry(), {});
        MulticastExpect want;
        Rng rng(static_cast<std::uint64_t>(dim));
        const int n = dim * dim;
        for (int k = 0; k < 500; ++k) {
            const PeId src = static_cast<PeId>(rng.nextBounded(
                static_cast<std::uint64_t>(n)));
            Dests dests(2 + rng.nextBounded(6));
            for (auto &[dst, channel] : dests) {
                dst = static_cast<PeId>(
                    rng.nextBounded(static_cast<std::uint64_t>(n)));
                channel = static_cast<int>(rng.nextBounded(4));
            }
            mesh.multicast(static_cast<Cycle>(k), src, dests, k);
            want.add(mesh.geometry(), router, src, dests);
        }
        want.check(mesh);
    }
}

/** Dead links: one destination detours, one is cut off.  The
 *  detoured word arrives at its detour latency; the cut-off one is
 *  dropped and counted. */
TEST(MeshMulticast, DeadLinkDetoursAndDrops)
{
    // {0-1, 0-4} isolate PE 0; {5-6} breaks 4 -> 7's XY route.
    const std::vector<DeadLink> dead = {{0, 1}, {0, 4}, {5, 6}};
    DataMesh mesh(4, 4, 1);
    mesh.setDeadLinks(dead);
    MeshRouter router(mesh.geometry(), dead);
    ASSERT_GT(router.hops(4, 7), mesh.geometry().hops(4, 7));
    ASSERT_EQ(router.hops(4, 0), -1);

    const std::vector<std::pair<PeId, int>> dests = {
        {7, 0}, {0, 1}, {8, 2}, {6, 3}};
    mesh.multicast(10, 4, dests, 99);
    MulticastExpect want;
    want.add(mesh.geometry(), router, 4, dests);
    want.check(mesh);
    EXPECT_EQ(want.packets, 3u);
    EXPECT_EQ(want.dropped, 1u);
    EXPECT_EQ(mesh.stats().value("dropped_words"), 1u);
    EXPECT_EQ(mesh.lastDropSrc(), 4);
    EXPECT_EQ(mesh.lastDropDst(), 0);

    const Cycle arrive = 10 + router.latency(4, 7);
    EXPECT_TRUE(mesh.deliver(arrive - 1, 7).empty());
    const std::vector<MeshPacket> got = mesh.deliver(arrive, 7);
    ASSERT_EQ(got.size(), 1u);
    EXPECT_EQ(got[0].value, 99);
    EXPECT_TRUE(mesh.deliver(1000, 0).empty());
}

/** The union stamp is 16 bits wide: 65,536 multicasts wrap it.  The
 *  first and the last multicast here share a stamp value (and the
 *  last one would otherwise reuse stamp 0, the mark of a link no
 *  multicast has touched), so the union stays exact only if the
 *  wrap clears every mark. */
TEST(MeshMulticast, StampWrapKeepsUnionExact)
{
    using Dests = std::vector<std::pair<PeId, int>>;
    DataMesh mesh(4, 4, 1);
    MeshRouter router(mesh.geometry(), {});
    const Dests row_col = {{3, 0}, {12, 0}};          // from PE 0.
    const Dests row_col_5 = {{3, 0}, {12, 0}, {5, 0}}; // + 1 -> 5.
    const Dests far = {{12, 0}, {3, 0}};               // from PE 15.
    MulticastExpect want;
    auto cast = [&](PeId src, const Dests &dests) {
        mesh.multicast(0, src, dests, 1);
        want.add(mesh.geometry(), router, src, dests);
        if (mesh.inFlight() > 4096)
            mesh.clearInFlight();
    };
    cast(0, row_col);
    for (int k = 0; k < 65'534; ++k)
        cast(15, far);
    cast(0, row_col_5);
    want.check(mesh);
    EXPECT_EQ(mesh.linkLoads()[static_cast<std::size_t>(
                  mesh.geometry().linkIndex(0, 1))],
              2u);
    EXPECT_EQ(mesh.linkLoads()[static_cast<std::size_t>(
                  mesh.geometry().linkIndex(1, 5))],
              1u);
    // And the next epoch keeps counting exactly.
    for (int k = 0; k < 1000; ++k)
        cast(k % 2 == 0 ? 0 : 15, k % 3 == 0 ? row_col_5 : row_col);
    want.check(mesh);
}

TEST(MeshDeath, BadEndpointsPanic)
{
    DataMesh mesh(2, 2, 1);
    EXPECT_DEATH(mesh.hops(-1, 0), "out of range");
    EXPECT_DEATH(mesh.hops(0, 4), "out of range");
}

} // namespace
} // namespace marionette

/**
 * @file
 * Data-mesh tests: XY hop counts, the Fig. 4d latency property
 * (6 cycles corner-to-corner on 4x4), and in-order delivery.
 */

#include <gtest/gtest.h>

#include "net/mesh.h"

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

TEST(MeshDeath, BadEndpointsPanic)
{
    DataMesh mesh(2, 2, 1);
    EXPECT_DEATH(mesh.hops(-1, 0), "out of range");
    EXPECT_DEATH(mesh.hops(0, 4), "out of range");
}

} // namespace
} // namespace marionette

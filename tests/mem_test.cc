/**
 * @file
 * Memory substrate tests: banked scratchpad arbitration and the
 * Control FIFOs of the control plane.
 */

#include <gtest/gtest.h>

#include <deque>

#include "mem/control_fifo.h"
#include "mem/scratchpad.h"

namespace marionette
{
namespace
{

TEST(Scratchpad, CapacityInWords)
{
    Scratchpad s(16 * 1024, 4);
    EXPECT_EQ(s.numWords(), 4096);
    EXPECT_EQ(s.numBanks(), 4);
}

TEST(Scratchpad, ReadBackWrites)
{
    Scratchpad s(1024, 4);
    s.write(10, -55);
    EXPECT_EQ(s.read(10), -55);
    EXPECT_EQ(s.read(11), 0);
}

TEST(Scratchpad, LowOrderInterleaving)
{
    Scratchpad s(1024, 4);
    EXPECT_EQ(s.bankOf(0), 0);
    EXPECT_EQ(s.bankOf(1), 1);
    EXPECT_EQ(s.bankOf(5), 1);
    EXPECT_EQ(s.bankOf(7), 3);
}

TEST(Scratchpad, PortArbitrationPerBank)
{
    Scratchpad s(1024, 4, /*ports_per_bank=*/1);
    s.beginCycle();
    EXPECT_TRUE(s.tryAccess(0));  // bank 0.
    EXPECT_FALSE(s.tryAccess(4)); // bank 0 again: conflict.
    EXPECT_TRUE(s.tryAccess(1));  // bank 1 free.
    EXPECT_EQ(s.stats().value("bank_conflicts"), 1u);
}

TEST(Scratchpad, PortsResetEachCycle)
{
    Scratchpad s(1024, 2, 1);
    s.beginCycle();
    EXPECT_TRUE(s.tryAccess(0));
    EXPECT_FALSE(s.tryAccess(2));
    s.beginCycle();
    EXPECT_TRUE(s.tryAccess(2));
}

TEST(Scratchpad, MultiPortBanksAllowTwoAccesses)
{
    Scratchpad s(1024, 2, 2);
    s.beginCycle();
    EXPECT_TRUE(s.tryAccess(0));
    EXPECT_TRUE(s.tryAccess(2));
    EXPECT_FALSE(s.tryAccess(4));
}

TEST(Scratchpad, BulkLoadAndDump)
{
    Scratchpad s(1024, 4);
    s.load(100, {1, 2, 3, 4});
    EXPECT_EQ(s.dump(100, 4), (std::vector<Word>{1, 2, 3, 4}));
}

TEST(ScratchpadDeath, OutOfBoundsRead)
{
    Scratchpad s(64, 2);
    EXPECT_DEATH(s.read(16), "out of");
    EXPECT_DEATH(s.read(-1), "out of");
}

TEST(ScratchpadDeath, OutOfBoundsWrite)
{
    Scratchpad s(64, 2);
    EXPECT_DEATH(s.write(16, 0), "out of");
}

TEST(ControlFifoTest, PushPopFifoOrder)
{
    ControlFifo f(4);
    EXPECT_TRUE(f.push(1));
    EXPECT_TRUE(f.push(2));
    EXPECT_EQ(f.pop(), 1);
    EXPECT_EQ(f.pop(), 2);
    EXPECT_TRUE(f.empty());

    // Uneven push and pop rounds walk the head past the ring's end
    // many times; a plain deque is the model.  A push into a full
    // FIFO is refused and changes nothing.
    for (int depth : {1, 4, 8, 16}) {
        ControlFifo ring(depth);
        std::deque<Word> model;
        Word next = 1;
        for (int round = 0; round < 6 * depth; ++round) {
            for (int k = 0; k <= round % depth + 1; ++k) {
                const bool room = static_cast<int>(model.size()) < depth;
                EXPECT_EQ(ring.push(next), room) << depth;
                if (room)
                    model.push_back(next);
                ++next;
            }
            EXPECT_EQ(ring.occupancy(), static_cast<int>(model.size()));
            for (int k = 0; k <= (3 * round) % depth && !model.empty();
                 ++k) {
                EXPECT_EQ(ring.front(), model.front()) << depth;
                EXPECT_EQ(ring.pop(), model.front()) << depth;
                model.pop_front();
            }
            EXPECT_EQ(ring.contents(),
                      std::vector<Word>(model.begin(), model.end()))
                << depth;
        }
        EXPECT_EQ(ring.stats().value("max_occupancy"),
                  static_cast<std::uint64_t>(depth));
    }
}

TEST(ControlFifoTest, RestoreOfWrappedContentsKeepsOrder)
{
    ControlFifo f(4, "f");
    for (Word w : {1, 2, 3})
        f.push(w);
    f.pop();
    f.pop();
    f.push(4);
    f.push(5); // wrapped: slots 2, 3, 0 hold 3, 4, 5.
    const std::vector<Word> saved = f.contents();
    ASSERT_EQ(saved, (std::vector<Word>{3, 4, 5}));
    const StatGroupState stats = f.saveStats();

    ControlFifo g(4, "f");
    g.push(8);
    g.push(9);
    g.pop(); // g's head sits at slot 1; the restore replaces all.
    g.restoreState(saved, stats);
    EXPECT_EQ(g.stats().value("pushes"), 5u);
    EXPECT_TRUE(g.push(6));
    EXPECT_FALSE(g.push(7)); // full at depth 4.
    for (Word w : {3, 4, 5, 6})
        EXPECT_EQ(g.pop(), w);
    EXPECT_EQ(ControlFifo(4).contents().capacity(), 0u)
        << "an empty FIFO's capture allocates nothing";
}

TEST(ControlFifoTest, FullRejectsPush)
{
    ControlFifo f(2);
    EXPECT_TRUE(f.push(1));
    EXPECT_TRUE(f.push(2));
    EXPECT_TRUE(f.full());
    EXPECT_FALSE(f.push(3));
    EXPECT_EQ(f.stats().value("push_blocked"), 1u);
}

TEST(ControlFifoTest, FrontPeeksWithoutPopping)
{
    ControlFifo f(4);
    f.push(9);
    EXPECT_EQ(f.front(), 9);
    EXPECT_EQ(f.occupancy(), 1);
}

TEST(ControlFifoTest, MaxOccupancyTracked)
{
    ControlFifo f(8);
    f.push(1);
    f.push(2);
    f.push(3);
    f.pop();
    f.pop();
    EXPECT_EQ(f.stats().value("max_occupancy"), 3u);
}

TEST(ControlFifoTest, ClearEmpties)
{
    ControlFifo f(4);
    f.push(1);
    f.clear();
    EXPECT_TRUE(f.empty());
}

TEST(ControlFifoDeath, PopFromEmptyPanics)
{
    ControlFifo f(4);
    EXPECT_DEATH(f.pop(), "empty");
}

TEST(ControlFifoDeath, ZeroDepthRejected)
{
    EXPECT_DEATH(ControlFifo(0), "positive");
}

} // namespace
} // namespace marionette

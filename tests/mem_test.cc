/**
 * @file
 * Memory substrate tests: banked scratchpad arbitration and the
 * Control FIFOs of the control plane.
 */

#include <gtest/gtest.h>

#include <deque>
#include <utility>

#include "mem/control_fifo.h"
#include "mem/scratchpad.h"
#include "sim/config.h"
#include "sim/rng.h"

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

/** A snapshot image keeps exactly the nonzero words: laid back onto
 *  a pad full of garbage it reproduces the source word for word,
 *  whatever the runs' shape.  The pad spans two full pages and a
 *  256-word last page, so runs meet page boundaries too. */
TEST(Scratchpad, ImageRoundTripsOntoAGarbagePad)
{
    const int page = Scratchpad::pageWords;
    const int n = 2 * page + 256;
    const struct
    {
        const char *shape;
        Word base;
        std::vector<Word> words;
        std::size_t runs;
    } cases[] = {
        {"empty", 0, {}, 0},
        {"run at word 0", 0, {1, 2, 3}, 1},
        {"run ending at the last word", n - 3, {4, 5, 6}, 1},
        {"runs split by one zero word", 10, {7, 8, 0, 9, -1}, 2},
        {"run straddling words 1023/1024", page - 2, {1, 2, 3, 4}, 1},
        {"run ending at word 1023", page - 3, {5, 6, 7, 0, 8}, 2},
        {"run starting at word 1024", page - 2, {9, 0, 10, 11}, 2},
        {"run on the last page", 2 * page + 7, {12, 13}, 1},
        {"all nonzero", 0, std::vector<Word>(n, -3), 1},
    };
    for (const auto &c : cases) {
        Scratchpad source(n * 4, 4);
        source.load(c.base, c.words);
        source.beginCycle();
        source.tryAccess(c.base);
        const Scratchpad::Image image = source.image();
        EXPECT_EQ(image.runs.size(), c.runs) << c.shape;

        Scratchpad target(n * 4, 4);
        target.fill(0, n, 0x5a5a5a5a);
        target.restoreState(image, source.saveStats());
        EXPECT_EQ(target.dump(0, n), source.dump(0, n)) << c.shape;
        EXPECT_EQ(target.stats().value("accesses"), 1u) << c.shape;
    }
}

/** The nonzero runs of @p words, found by scanning every word (the
 *  reference a paged image() must match). */
std::pair<std::vector<std::pair<Word, int>>, std::vector<Word>>
denseImage(const std::vector<Word> &words)
{
    std::pair<std::vector<std::pair<Word, int>>, std::vector<Word>> out;
    for (std::size_t i = 0; i < words.size(); ++i) {
        if (words[i] == 0)
            continue;
        if (i == 0 || words[i - 1] == 0)
            out.first.push_back({static_cast<Word>(i), 0});
        ++out.first.back().second;
        out.second.push_back(words[i]);
    }
    return out;
}

/** An evaluation-fabric pad holds a page only once a nonzero word
 *  is written to it: reads, dumps and zero fills hold nothing. */
TEST(Scratchpad, PagesHeldOnlyWhereWritten)
{
    const int bytes = evalFabric().scratchpadBytes;
    const int page = Scratchpad::pageWords;
    Scratchpad pad(bytes, 8);
    const int n = pad.numWords();
    EXPECT_EQ(pad.heldWords(), 0);
    EXPECT_EQ(pad.dump(0, n), std::vector<Word>(n, 0));
    pad.fill(0, n, 0);
    pad.write(5, 0);
    EXPECT_EQ(pad.heldWords(), 0);
    EXPECT_TRUE(pad.image().runs.empty());

    pad.write(98304, 7);
    EXPECT_EQ(pad.heldWords(), page);
    EXPECT_EQ(pad.read(98304), 7);
    EXPECT_EQ(pad.read(98304 - 1), 0);
    pad.fill(0, n, 0);
    EXPECT_EQ(pad.heldWords(), page);
    EXPECT_EQ(pad.read(98304), 0);

    // Seeded sparse pads: short runs of mixed words, some on page
    // boundaries, over a few pages anywhere in the pad.
    for (std::uint64_t seed = 1; seed <= 20; ++seed) {
        SCOPED_TRACE(seed);
        Rng rng(seed);
        Scratchpad sparse(bytes, 8);
        for (int r = 0; r < 12; ++r) {
            const Word start =
                rng.nextBool(0.25)
                    ? static_cast<Word>(rng.nextRange(1, n / page - 1) *
                                            page -
                                        rng.nextRange(0, 3))
                    : static_cast<Word>(rng.nextRange(0, n - 40));
            const Word end = start + static_cast<Word>(rng.nextRange(1, 40));
            for (Word a = start; a < end; ++a)
                sparse.write(a, rng.nextBool(0.8)
                                    ? static_cast<Word>(rng.next64())
                                    : 0);
        }
        const Scratchpad::Image image = sparse.image();
        std::vector<std::pair<Word, int>> runs;
        for (const Scratchpad::Image::Run &run : image.runs)
            runs.push_back({run.start, run.count});
        const auto dense = denseImage(sparse.dump(0, n));
        EXPECT_EQ(runs, dense.first);
        EXPECT_EQ(image.words, dense.second);
        EXPECT_LE(sparse.heldWords(), 2 * 12 * page);

        Scratchpad fresh(bytes, 8);
        fresh.restoreState(image, sparse.saveStats());
        EXPECT_EQ(fresh.dump(0, n), sparse.dump(0, n));
        EXPECT_LE(fresh.heldWords(), sparse.heldWords());
    }
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

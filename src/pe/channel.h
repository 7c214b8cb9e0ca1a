/**
 * @file
 * Latency-insensitive input channel of a PE's data flow part.
 *
 * Channels decouple producers from consumers: the mesh deposits
 * words, the FU pops them when an instruction fires.  Bounded depth
 * gives the fabric back-pressure; the machine checks credit before
 * letting a producer fire.  The words sit in a WordRing
 * (sim/ring.h) of the channel's depth, so pushes and pops allocate
 * nothing.
 */

#ifndef MARIONETTE_PE_CHANNEL_H
#define MARIONETTE_PE_CHANNEL_H

#include <span>
#include <vector>

#include "sim/logging.h"
#include "sim/ring.h"
#include "sim/types.h"

namespace marionette
{

/** Words one data input channel holds: a producer may fire this many
 *  times ahead of its consumer before credit stops it.  The
 *  compiler's timing model (operand skew) and its run-ahead cap for
 *  ordering tokens (a closing channel seeded at most one word short
 *  of full) read the same figure. */
inline constexpr int kDataChannelDepth = 8;

/** A bounded FIFO of data words feeding one operand port. */
class InputChannel
{
  public:
    explicit InputChannel(int depth = kDataChannelDepth)
        : words_(depth)
    {}

    int depth() const { return words_.capacity(); }
    int occupancy() const { return words_.size(); }
    bool empty() const { return words_.empty(); }
    bool full() const { return words_.full(); }
    int space() const { return depth() - occupancy(); }

    void
    push(Word value)
    {
        MARIONETTE_ASSERT(!full(),
                          "channel overflow (credit protocol bug)");
        words_.push(value);
    }

    Word
    front() const
    {
        MARIONETTE_ASSERT(!empty(), "peek of empty channel");
        return words_.front();
    }

    Word
    pop()
    {
        MARIONETTE_ASSERT(!empty(), "pop of empty channel");
        return words_.pop();
    }

    void clear() { words_.clear(); }

    /** Fault injection: XOR the head word with @p xor_mask (the
     *  transient-upset model — a bit flip in the channel register
     *  about to be consumed).  No-op on an empty channel. */
    void
    corruptFront(Word xor_mask)
    {
        if (!words_.empty())
            words_.front() ^= xor_mask;
    }

    /** Buffered words, oldest first (machine snapshots). */
    std::vector<Word> contents() const { return words_.contents(); }

    /** Restore a contents() capture (machine snapshots). */
    void restore(std::span<const Word> words) { words_.assign(words); }

  private:
    WordRing words_;
};

} // namespace marionette

#endif // MARIONETTE_PE_CHANNEL_H

/**
 * @file
 * Latency-insensitive input channel of a PE's data flow part.
 *
 * Channels decouple producers from consumers: the mesh deposits
 * words, the FU pops them when an instruction fires.  Bounded depth
 * gives the fabric back-pressure; the machine checks credit before
 * letting a producer fire.
 */

#ifndef MARIONETTE_PE_CHANNEL_H
#define MARIONETTE_PE_CHANNEL_H

#include <deque>

#include "sim/logging.h"
#include "sim/types.h"

namespace marionette
{

/** A bounded FIFO of data words feeding one operand port. */
class InputChannel
{
  public:
    explicit InputChannel(int depth = 8) : depth_(depth) {}

    int depth() const { return depth_; }
    int occupancy() const
    { return static_cast<int>(words_.size()); }
    bool empty() const { return words_.empty(); }
    bool full() const { return occupancy() >= depth_; }
    int space() const { return depth_ - occupancy(); }

    void
    push(Word value)
    {
        MARIONETTE_ASSERT(!full(),
                          "channel overflow (credit protocol bug)");
        words_.push_back(value);
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
        Word v = words_.front();
        words_.pop_front();
        return v;
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
    const std::deque<Word> &words() const { return words_; }

    /** Restore a words() capture (machine snapshots). */
    void restoreWords(const std::deque<Word> &words)
    {
        words_ = words;
    }

  private:
    int depth_;
    std::deque<Word> words_;
};

} // namespace marionette

#endif // MARIONETTE_PE_CHANNEL_H

/**
 * @file
 * A bounded ring of words: the storage behind a PE's input channels
 * (pe/channel.h) and the control FIFOs (mem/control_fifo.h).
 *
 * The capacity is fixed at construction, which allocates the slots
 * once; push() and pop() only move the head and the size.  For
 * machine snapshots, contents() copies the live words out oldest
 * first as plain words (an empty ring allocates nothing) and
 * assign() puts such a capture back.
 */

#ifndef MARIONETTE_SIM_RING_H
#define MARIONETTE_SIM_RING_H

#include <algorithm>
#include <span>
#include <vector>

#include "sim/logging.h"
#include "sim/types.h"

namespace marionette
{

/** A FIFO of at most capacity() words in a fixed slot array.  The
 *  owner checks full() before push() and empty() before front() or
 *  pop(). */
class WordRing
{
  public:
    explicit WordRing(int capacity)
        : slots_(static_cast<std::size_t>(std::max(capacity, 0)))
    {
        MARIONETTE_ASSERT(capacity > 0,
                          "ring capacity %d must be positive", capacity);
    }

    int capacity() const { return static_cast<int>(slots_.size()); }
    int size() const { return size_; }
    bool empty() const { return size_ == 0; }
    bool full() const { return size_ == capacity(); }

    void
    push(Word value)
    {
        slots_[slot(size_)] = value;
        ++size_;
    }

    /** The oldest word. */
    Word &front() { return slots_[slot(0)]; }
    Word front() const { return slots_[slot(0)]; }

    Word
    pop()
    {
        const Word v = front();
        head_ = static_cast<int>(slot(1));
        --size_;
        return v;
    }

    void
    clear()
    {
        head_ = 0;
        size_ = 0;
    }

    /** The buffered words, oldest first. */
    std::vector<Word>
    contents() const
    {
        std::vector<Word> out;
        out.reserve(static_cast<std::size_t>(size_));
        for (int i = 0; i < size_; ++i)
            out.push_back(slots_[slot(i)]);
        return out;
    }

    /** Replace the contents with @p words, oldest first (a
     *  contents() capture). */
    void
    assign(std::span<const Word> words)
    {
        MARIONETTE_ASSERT(words.size() <= slots_.size(),
                          "%zu words restored into a ring of %d",
                          words.size(), capacity());
        head_ = 0;
        size_ = static_cast<int>(words.size());
        for (std::size_t i = 0; i < words.size(); ++i)
            slots_[i] = words[i];
    }

  private:
    /** Slot of the word @p offset places behind the head. */
    std::size_t
    slot(int offset) const
    {
        const std::size_t at = static_cast<std::size_t>(head_ + offset);
        return at < slots_.size() ? at : at - slots_.size();
    }

    std::vector<Word> slots_;
    int head_ = 0;
    int size_ = 0;
};

} // namespace marionette

#endif // MARIONETTE_SIM_RING_H

/**
 * @file
 * Control FIFOs (paper Fig. 4d, Sec. 4.3).
 *
 * The Control Flow Scheduler collects control information generated
 * by outer-loop basic blocks into Control FIFOs.  When an inner-loop
 * pipeline finishes a round of iterations it pops the pre-collected
 * outer control word to decide whether to start the next round —
 * without reconfiguring the outer BB onto PEs.  Bounded depth with
 * explicit full/empty so back-pressure is modeled.
 */

#ifndef MARIONETTE_MEM_CONTROL_FIFO_H
#define MARIONETTE_MEM_CONTROL_FIFO_H

#include <deque>

#include "sim/stats.h"
#include "sim/types.h"

namespace marionette
{

/** A bounded FIFO of control words. */
class ControlFifo
{
  public:
    /**
     * @param depth capacity in entries.
     * @param name  stat prefix.
     */
    explicit ControlFifo(int depth, const std::string &name = "cfifo");

    int depth() const { return depth_; }
    int occupancy() const
    { return static_cast<int>(entries_.size()); }

    bool empty() const { return entries_.empty(); }
    bool full() const { return occupancy() >= depth_; }

    /** Push a control word; @return false (and drop) when full. */
    bool push(Word value);

    /** Pop the oldest word; panics when empty (check first). */
    Word pop();

    /** Peek without popping; panics when empty. */
    Word front() const;

    /** Drop all contents (used at kernel boundaries). */
    void clear();

    const StatGroup &stats() const { return stats_; }

    /** Zero every statistic (persistent-machine request reset). */
    void resetStats() { stats_.resetAll(); }

    /** Buffered words, oldest first (machine snapshots). */
    const std::deque<Word> &contents() const { return entries_; }

    /** Restore a contents() + stats capture (machine snapshots). */
    void
    restoreState(const std::deque<Word> &entries,
                 const StatGroupState &stats)
    {
        entries_ = entries;
        stats_.restoreState(stats);
    }

    /** Snapshot the FIFO's statistics (machine snapshots). */
    StatGroupState saveStats() const
    {
        return stats_.captureState();
    }

  private:
    int depth_;
    std::deque<Word> entries_;
    StatGroup stats_;
    Stat &statPushes_;
    Stat &statPops_;
    Stat &statPushBlocked_;
    Stat &statMaxOccupancy_;
};

} // namespace marionette

#endif // MARIONETTE_MEM_CONTROL_FIFO_H

/**
 * @file
 * Banked data scratchpad (paper Fig. 4d "Data SRAM ... BANK").
 *
 * Word-addressed, multi-banked SRAM with a configurable bank count.
 * Accesses in the same cycle to distinct banks proceed in parallel;
 * same-bank accesses beyond one port serialize, which the machine
 * observes as back-pressure.  Banking is low-order interleaved.
 */

#ifndef MARIONETTE_MEM_SCRATCHPAD_H
#define MARIONETTE_MEM_SCRATCHPAD_H

#include <vector>

#include "sim/logging.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace marionette
{

/** Banked word-addressed scratchpad memory. */
class Scratchpad
{
  public:
    /**
     * @param bytes capacity in bytes (4-byte words).
     * @param banks bank count (power of two recommended).
     * @param ports_per_bank simultaneous accesses per bank per cycle.
     */
    Scratchpad(int bytes, int banks, int ports_per_bank = 1);

    /** Capacity in 32-bit words. */
    int numWords() const { return static_cast<int>(data_.size()); }

    int numBanks() const { return banks_; }

    /** Bank an address maps to (low-order interleaving). */
    int bankOf(Word addr) const;

    /**
     * Begin a new cycle: reset per-cycle port occupancy.  Call once
     * per machine tick before issuing accesses.
     */
    void beginCycle();

    /**
     * Try to issue an access this cycle.  @return false when the
     * target bank's ports are exhausted (caller retries next cycle).
     */
    bool tryAccess(Word addr);

    /** Read the word at @p addr (bounds-checked). */
    Word read(Word addr) const;

    /** Write the word at @p addr. */
    void write(Word addr, Word value);

    /** Bulk initialization helper for workloads/tests. */
    void load(Word base, const std::vector<Word> &words);

    /** Set words [base, base + count) to @p value. */
    void fill(Word base, int count, Word value);

    /** Bulk read-back helper. */
    std::vector<Word> dump(Word base, int count) const;

    const StatGroup &stats() const { return stats_; }

    /** Zero every statistic (persistent-machine request reset). */
    void resetStats() { stats_.resetAll(); }

    /**
     * The nonzero words of the pad (machine snapshots): each run
     * covers words [start, start + count), and the runs' values sit
     * back to back in @c words, in run order.  Every word outside
     * the runs is zero.
     */
    struct Image
    {
        struct Run
        {
            Word start = 0;
            int count = 0;
        };
        std::vector<Run> runs;
        std::vector<Word> words;
    };

    /** Capture the nonzero runs (machine snapshots). */
    Image image() const;

    /** Zero the pad, lay an image() back and restore a saveStats()
     *  capture (machine snapshots). */
    void restoreState(const Image &image, const StatGroupState &stats);

    /** Snapshot the scratchpad's statistics (machine snapshots). */
    StatGroupState saveStats() const
    {
        return stats_.captureState();
    }

  private:
    std::vector<Word> data_;
    int banks_;
    int portsPerBank_;
    std::vector<int> portsUsed_;
    /** True when some port was claimed since the last beginCycle()
     *  (lets the reset skip untouched cycles). */
    bool portsDirty_ = false;
    StatGroup stats_;
    Stat &statAccesses_;
    Stat &statBankConflicts_;
};

} // namespace marionette

#endif // MARIONETTE_MEM_SCRATCHPAD_H

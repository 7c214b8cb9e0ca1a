/**
 * @file
 * Banked data scratchpad (paper Fig. 4d "Data SRAM ... BANK").
 *
 * Word-addressed, multi-banked SRAM with a configurable bank count.
 * Accesses in the same cycle to distinct banks proceed in parallel;
 * same-bank accesses beyond one port serialize, which the machine
 * observes as back-pressure.  Banking is low-order interleaved.
 *
 * Storage is paged: the pad holds a 1,024-word page from the first
 * nonzero word written to it, and every word of a page it does not
 * hold reads 0.  A machine's resident pad thus follows the words its
 * kernels write, not the configured capacity, and snapshots and
 * restores touch held pages only.
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

    /** Words per storage page (4 KiB). */
    static constexpr int pageWords = 1024;

    /** Capacity in 32-bit words. */
    int numWords() const { return numWords_; }

    /** Words the pad holds in storage: the pages a nonzero word was
     *  written to, kept for the pad's lifetime. */
    int heldWords() const;

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

    /** Write the word at @p addr (a zero allocates no page). */
    void write(Word addr, Word value);

    /** Bulk initialization helper for workloads/tests (a page that
     *  would receive only zeros is not allocated). */
    void load(Word base, const std::vector<Word> &words);

    /** Set words [base, base + count) to @p value (a zero fill
     *  clears held pages only). */
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

    /** Capture the nonzero runs, walking held pages only (machine
     *  snapshots).  A run continues across a page boundary. */
    Image image() const;

    /** Zero the held pages in place, lay an image() back (holding
     *  only the pages its runs cover) and restore a saveStats()
     *  capture (machine snapshots). */
    void restoreState(const Image &image, const StatGroupState &stats);

    /** Snapshot the scratchpad's statistics (machine snapshots). */
    StatGroupState saveStats() const
    {
        return stats_.captureState();
    }

  private:
    /** Page @p p, allocated all-zero if the pad does not hold it. */
    std::vector<Word> &hold(std::size_t p);

    /** Copy @p count words to [base, base + count), holding only
     *  the pages that receive a nonzero word. */
    void store(Word base, const Word *words, int count);

    int numWords_;
    /** Page p covers words [p * pageWords, (p + 1) * pageWords),
     *  clipped to the capacity; an empty vector is a page the pad
     *  does not hold. */
    std::vector<std::vector<Word>> pages_;
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

/**
 * @file
 * Predication transform (paper Sec. 3.2, "Branch Divergence:
 * Predication").
 *
 * Von Neumann PEs cannot reconfigure each other, so the prevalent
 * way to run a branch is to *pre-configure both targets in space*
 * and select the surviving value with a Select at the join.  The
 * transform merges a Branch block with its two target blocks into
 * one straight-line block; the not-taken lane's operators still
 * occupy PEs every iteration — the utilization loss Fig. 3(c)
 * illustrates and Fig. 11 quantifies.
 */

#ifndef MARIONETTE_COMPILER_PREDICATION_H
#define MARIONETTE_COMPILER_PREDICATION_H

#include <map>
#include <vector>

#include "ir/cdfg.h"

namespace marionette
{

/**
 * The performance models' view of predication: per-block
 * *effective* operator counts, where each block that is a branch
 * target is charged to its branch's parent region so both lanes
 * occupy PEs simultaneously.
 */
std::map<BlockId, int> predicatedOpCounts(const Cdfg &cdfg);

/**
 * Predication as a compiler *lowering* pass (the CDFG->Program
 * pipeline's predicate pass): flatten every Branch block whose two
 * plain targets rejoin at one block into one straight-line block
 * with a Select per live-out, preserving loop structure.  Beyond the
 * plain diamond merge:
 *
 *  - iterates to a fixpoint, so nested diamonds whose lanes become
 *    plain after an inner merge (NW's three-way max) flatten too;
 *  - Branch operator nodes are dropped from merged blocks (the
 *    select steers the value; there is no branch left to place);
 *  - a Store inside a lane becomes a *predicated* store (the lane
 *    gate rides the store's third operand; the PE skips the write
 *    when it is 0), so lanes with side effects if-convert exactly;
 *  - asymmetric lanes are legal: an output present in one lane
 *    selects against the *incoming* value of the same name on the
 *    other path, or against a caller-provided default immediate
 *    (the zero-initialized local of the original C source);
 *  - pure pass-through lanes ({x, Copy, x} — the builder's
 *    copyBlock idiom for "nothing happens on this path") contribute
 *    no outputs of their own;
 *  - lane inputs are de-duplicated by name into the merged block.
 *
 * Returns the rewritten graph plus one note per merged region.  A
 * branch whose lanes are not flattenable (a lane contains a loop or
 * another unmerged branch) is left in place; the structure pass
 * reports it.
 */
struct LoweringPredication
{
    Cdfg cdfg;
    /** Human-readable note per merged region. */
    std::vector<std::string> notes;
    /** Names selected against a default for lack of any reaching
     *  definition; empty entries mean the merge FAILED for that
     *  region (reported via `unresolved`). */
    std::vector<std::string> defaultedPorts;
    /** Output names with no lane value, no pass-through and no
     *  default — each makes the caller reject the kernel. */
    std::vector<std::string> unresolved;
};
LoweringPredication
predicateForLowering(const Cdfg &cdfg,
                     const std::map<std::string, Word> &defaults);

} // namespace marionette

#endif // MARIONETTE_COMPILER_PREDICATION_H

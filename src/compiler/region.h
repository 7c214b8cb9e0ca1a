/**
 * @file
 * Region tree: the compiler middle-end's structured control-flow IR.
 *
 * The structure pass converts the (predicated) CDFG into a tree of
 * regions; every later pass — bind, lower, emit — consumes the tree
 * instead of re-deriving shape from CFG edges.  The node kinds map
 * one-to-one onto the structured constructs the flattening lowering
 * can execute:
 *
 *  - Block        one straight-line basic block;
 *  - CountedLoop  a loop whose header matches the counted pattern
 *                 (iv += const) or its geometric variant
 *                 (iv <<= const);
 *  - WhileLoop    a condition-driven loop (the header's Loop
 *                 operator consumes a computed predicate with bound
 *                 1); lowered with a guarded exit predicate and a
 *                 static iteration cap from the workload spec;
 *  - Cond         a data-dependent branch whose lanes did not
 *                 predicate away (one lane holds a loop); lowered by
 *                 if-conversion: the whole lane is gated on the
 *                 branch predicate;
 *  - Seq          ordered children of a loop body or lane; multiple
 *                 loop children in one Seq are *sibling loops in
 *                 sequence*, lowered by slot-range splitting.
 *
 * Spans (the number of flattened iteration slots one execution of a
 * region occupies) are filled in by the bind pass once trip counts
 * are known.
 */

#ifndef MARIONETTE_COMPILER_REGION_H
#define MARIONETTE_COMPILER_REGION_H

#include <functional>
#include <string>
#include <vector>

#include "ir/cdfg.h"

namespace marionette
{

enum class RegionKind : std::uint8_t
{
    Block,
    CountedLoop,
    WhileLoop,
    Cond,
    Seq
};

/** One node of the region tree. */
struct Region
{
    RegionKind kind = RegionKind::Seq;

    // ---- Block ----
    BlockId block = invalidBlock;

    // ---- CountedLoop / WhileLoop ----
    BlockId header = invalidBlock;
    std::string headerName;
    /** iv' = iv << step instead of iv' = iv + step. */
    bool geometric = false;
    /** Additive step, or shift amount when geometric. */
    Word step = 1;
    /** Filled by bind: first induction value. */
    Word start = 0;
    /** Filled by bind: trip count (the static cap for WhileLoop). */
    Word trips = 0;
    /** Body port the induction stream drives (may be empty). */
    std::string ivPort;

    // ---- Cond ----
    /** Branch block computing the predicate. */
    BlockId pred = invalidBlock;
    /** The predicate value's output-port name on @p pred. */
    std::string predPort;
    /** If-converted else-lane children (blocks only). */
    std::vector<Region> elseChildren;

    // ---- Seq / loop body / Cond then-lane ----
    std::vector<Region> children;

    // ---- Filled by bind ----
    /** Flattened slots one execution of this region occupies
     *  (0 for Block: blocks ride on an adjacent slot boundary). */
    Word span = 0;

    static Region makeBlock(BlockId id)
    {
        Region r;
        r.kind = RegionKind::Block;
        r.block = id;
        return r;
    }

    /** Depth-first visit of every region (this included). */
    void forEach(const std::function<void(const Region &)> &fn) const;
    void forEach(const std::function<void(Region &)> &fn);

    /** One-line shape summary ("counted 'i_loop' [...]"). */
    std::string summary(const Cdfg &cdfg) const;
};

/** The whole kernel after structuring. */
struct RegionTree
{
    /** Straight-line blocks before the first top-level loop
     *  (statically evaluated by bind for recurrence seeds). */
    std::vector<BlockId> initBlocks;
    /** One entry per top-level loop: a serial machine phase. */
    std::vector<Region> phases;
    /** Blocks after the last loop (no machine semantics). */
    std::vector<BlockId> tailBlocks;
};

} // namespace marionette

#endif // MARIONETTE_COMPILER_REGION_H

/**
 * @file
 * Convenience builder for CDFGs.
 *
 * The paper's toolchain annotates C sources with #pragma tags and
 * extracts the CDFG through a modified Clang.  This repository
 * substitutes a programmatic builder producing the identical graphs:
 * the builder offers structured loop and branch constructs so
 * workload definitions read like the annotated source.
 */

#ifndef MARIONETTE_IR_BUILDER_H
#define MARIONETTE_IR_BUILDER_H

#include <functional>
#include <string>

#include "ir/cdfg.h"
#include "ir/loop_info.h"

namespace marionette
{

/**
 * Structured CDFG construction.
 *
 * Typical use:
 * @code
 *   CdfgBuilder b("spmv");
 *   BlockId init = b.addBlock("init");
 *   BlockId outer = b.addLoopHeader("outer");
 *   ...
 *   b.fall(init, outer);
 *   b.loopBack(body, outer);
 *   b.loopExit(outer, done);
 *   Cdfg cdfg = b.finish();
 * @endcode
 */
class CdfgBuilder
{
  public:
    explicit CdfgBuilder(std::string name) : cdfg_(std::move(name)) {}

    /** Plain block. */
    BlockId addBlock(const std::string &name);

    /** Block ending in a conditional branch. */
    BlockId addBranchBlock(const std::string &name);

    /** Loop header containing a Loop operator. */
    BlockId addLoopHeader(const std::string &name);

    /** Access the block's DFG to populate operators. */
    Dfg &dfg(BlockId id) { return cdfg_.block(id).dfg; }

    /** Unconditional edge. */
    void fall(BlockId src, BlockId dst);
    /** Conditional edges from a Branch block. */
    void branch(BlockId src, BlockId taken, BlockId not_taken);
    /** Back edge into a loop header. */
    void loopBack(BlockId src, BlockId header);
    /** Exit edge leaving a loop. */
    void loopExit(BlockId header, BlockId dst);

    /**
     * Validate, run loop analysis (annotating depths) and return the
     * finished graph.  The builder must not be reused afterwards.
     */
    Cdfg finish();

  private:
    Cdfg cdfg_;
    bool finished_ = false;
};

/**
 * Helpers that synthesize the small recurring DFG idioms the
 * workloads share, so each workload file stays readable.
 */
namespace dfg_patterns
{

/** in0..in(n-1) summed pairwise into one output named "sum". */
void reduceTree(Dfg &dfg, int n_inputs, Opcode op = Opcode::Add);

/** Loop bookkeeping: i = phi(init, i+step); cond = i < bound. */
struct LoopVars
{
    NodeId induction = invalidNode;
    NodeId condition = invalidNode;
};

/**
 * Add a canonical counted-loop skeleton (induction variable, bound
 * compare, Loop operator) to @p dfg.  The Loop operator's result
 * drives the header's LoopBack/LoopExit decision.
 */
LoopVars addCountedLoop(Dfg &dfg, Word init, Word step,
                        const std::string &bound_input);

} // namespace dfg_patterns

} // namespace marionette

#endif // MARIONETTE_IR_BUILDER_H

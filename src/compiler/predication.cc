#include "compiler/predication.h"

#include <set>

namespace marionette
{

namespace
{

/**
 * A branch region is flattenable when both conditional successors
 * are plain blocks whose only successors rejoin at one block.
 */
struct BranchRegion
{
    BlockId branch = invalidBlock;
    BlockId takenBlock = invalidBlock;
    BlockId notTakenBlock = invalidBlock;
    BlockId join = invalidBlock;
};

std::vector<BranchRegion>
findRegions(const Cdfg &cdfg)
{
    std::vector<BranchRegion> regions;
    for (const BasicBlock &bb : cdfg.blocks()) {
        if (bb.kind != BlockKind::Branch)
            continue;
        BranchRegion r;
        r.branch = bb.id;
        for (const CfgEdge &e : cdfg.successors(bb.id)) {
            if (e.kind == EdgeKind::Taken)
                r.takenBlock = e.dst;
            else if (e.kind == EdgeKind::NotTaken)
                r.notTakenBlock = e.dst;
        }
        if (r.takenBlock == invalidBlock ||
            r.notTakenBlock == invalidBlock)
            continue;
        auto joinOf = [&](BlockId b) -> BlockId {
            auto succs = cdfg.successors(b);
            if (succs.size() != 1)
                return invalidBlock;
            return succs[0].dst;
        };
        BlockId j1 = joinOf(r.takenBlock);
        BlockId j2 = joinOf(r.notTakenBlock);
        if (j1 != invalidBlock && j1 == j2 &&
            cdfg.block(r.takenBlock).kind == BlockKind::Plain &&
            cdfg.block(r.notTakenBlock).kind == BlockKind::Plain) {
            r.join = j1;
            regions.push_back(r);
        }
    }
    return regions;
}

/** The builder's copyBlock idiom: {input x, Copy, output x} —
 *  semantically "nothing happens on this path".  The name must
 *  round-trip: a lane copying one value into a *different* name
 *  (NW's pick blocks routing 'diag' into 'win') is a real binding,
 *  not a pass-through. */
bool
isPassThroughLane(const Dfg &dfg)
{
    return dfg.numNodes() == 1 && dfg.inputs().size() == 1 &&
           dfg.outputs().size() == 1 &&
           dfg.nodes()[0].op == Opcode::Copy &&
           dfg.nodes()[0].a == Operand::input(0) &&
           dfg.outputs()[0].producer == dfg.nodes()[0].id &&
           dfg.outputs()[0].name == dfg.inputs()[0].name;
}

/** One fixpoint iteration: merge every flattenable region found in
 *  @p cdfg.  Returns true when at least one region merged. */
bool
mergeOnce(const Cdfg &cdfg, const std::map<std::string, Word> &defaults,
          LoweringPredication &result, Cdfg &out)
{
    auto regions = findRegions(cdfg);
    if (regions.empty())
        return false;

    std::set<BlockId> absorbed;
    std::map<BlockId, const BranchRegion *> region_of_branch;
    for (const BranchRegion &r : regions) {
        absorbed.insert(r.takenBlock);
        absorbed.insert(r.notTakenBlock);
        region_of_branch[r.branch] = &r;
    }

    std::map<BlockId, BlockId> remap;
    for (const BasicBlock &bb : cdfg.blocks()) {
        if (absorbed.count(bb.id))
            continue;
        auto it = region_of_branch.find(bb.id);
        if (it == region_of_branch.end()) {
            BlockId nb = out.addBlock(bb.name, bb.kind);
            out.block(nb).dfg = bb.dfg;
            out.block(nb).loopDepth = bb.loopDepth;
            remap[bb.id] = nb;
            continue;
        }

        const BranchRegion &r = *it->second;
        BlockId nb =
            out.addBlock(bb.name + ".pred", BlockKind::Plain);
        out.block(nb).loopDepth = bb.loopDepth;
        Dfg &dfg = out.block(nb).dfg;

        const Dfg &cond = cdfg.block(r.branch).dfg;
        const Dfg &lane_t = cdfg.block(r.takenBlock).dfg;
        const Dfg &lane_f = cdfg.block(r.notTakenBlock).dfg;
        bool t_pass = isPassThroughLane(lane_t);
        bool f_pass = isPassThroughLane(lane_f);

        std::map<std::string, int> input_idx;
        auto getInput = [&](const std::string &name) {
            auto ii = input_idx.find(name);
            if (ii != input_idx.end())
                return ii->second;
            int idx = dfg.addInput(name);
            input_idx[name] = idx;
            return idx;
        };

        // Copy a DFG's nodes (minus Branch operators), de-duping
        // inputs by name; returns old node id -> merged operand.
        // A store inside a lane becomes a *predicated* store: the
        // lane gate rides the store's predicate operand, so only
        // the surviving path writes memory (the PE skips the
        // access when the predicate is 0).
        auto copyNodes = [&](const Dfg &src, Operand lane_gate) {
            std::map<NodeId, Operand> val;
            for (const DfgNode &n : src.nodes()) {
                auto shift = [&](const Operand &o) -> Operand {
                    switch (o.kind) {
                      case OperandKind::Node:
                        return val.at(o.ref);
                      case OperandKind::Input:
                        return Operand::input(getInput(
                            src.inputs()[static_cast<std::size_t>(
                                             o.ref)]
                                .name));
                      default:
                        return o;
                    }
                };
                if (n.op == Opcode::Branch) {
                    // The branch operator dissolves into the
                    // select; anything referencing it (operands or
                    // outputs) sees its steering predicate.
                    val[n.id] = shift(n.a);
                    continue;
                }
                Operand c = shift(n.c);
                if (n.op == Opcode::Store &&
                    c.kind == OperandKind::None)
                    c = lane_gate;
                val[n.id] = Operand::node(dfg.addNode(
                    n.op, shift(n.a), shift(n.b), c, n.name));
            }
            return val;
        };

        auto cond_val = copyNodes(cond, Operand::none());

        // Predicate = the Branch operator's steering operand —
        // read through cond_val so input operands pick up their
        // merged-DFG re-indexing.
        Operand pred = Operand::none();
        for (const DfgNode &n : cond.nodes())
            if (n.op == Opcode::Branch)
                pred = cond_val.at(n.id);
        if (pred.kind == OperandKind::None && !cond.nodes().empty())
            pred = cond_val.at(cond.nodes().back().id);

        auto hasStore = [](const Dfg &lane) {
            for (const DfgNode &n : lane.nodes())
                if (n.op == Opcode::Store)
                    return true;
            return false;
        };
        std::map<NodeId, Operand> t_val, f_val;
        if (!t_pass)
            t_val = copyNodes(lane_t, pred);
        if (!f_pass) {
            Operand not_pred = Operand::none();
            if (hasStore(lane_f))
                not_pred = Operand::node(dfg.addNode(
                    Opcode::CmpEq, pred, Operand::imm(0),
                    Operand::none(), "lane.not"));
            f_val = copyNodes(lane_f, not_pred);
        }

        // Keep the condition block's own outputs (downstream blocks
        // may consume them); selects of the same name override.
        std::set<std::string> emitted;
        std::map<std::string, Operand> pending_cond_outputs;
        for (const DfgOutput &o : cond.outputs())
            pending_cond_outputs[o.name] = cond_val.at(o.producer);

        // Select the union of lane outputs; a missing side falls
        // back to the incoming value of the same name, then to a
        // caller default (the zero-initialized local).
        auto laneValue = [&](const Dfg &lane, bool pass,
                             const std::map<NodeId, Operand> &val,
                             const std::string &name,
                             Operand &out_op) -> bool {
            if (!pass) {
                int o = lane.findOutput(name);
                if (o >= 0) {
                    out_op = val.at(
                        lane.outputs()[static_cast<std::size_t>(o)]
                            .producer);
                    return true;
                }
            }
            auto co = pending_cond_outputs.find(name);
            if (co != pending_cond_outputs.end()) {
                out_op = co->second;
                return true;
            }
            auto ii = input_idx.find(name);
            if (ii != input_idx.end()) {
                out_op = Operand::input(ii->second);
                return true;
            }
            auto dv = defaults.find(name);
            if (dv != defaults.end()) {
                out_op = Operand::imm(dv->second);
                result.defaultedPorts.push_back(name);
                return true;
            }
            return false;
        };

        std::vector<std::string> names;
        if (!t_pass)
            for (const DfgOutput &o : lane_t.outputs())
                names.push_back(o.name);
        if (!f_pass)
            for (const DfgOutput &o : lane_f.outputs())
                if (t_pass || lane_t.findOutput(o.name) < 0)
                    names.push_back(o.name);
        for (const std::string &name : names) {
            Operand tv, fv;
            if (!laneValue(lane_t, t_pass, t_val, name, tv) ||
                !laneValue(lane_f, f_pass, f_val, name, fv)) {
                result.unresolved.push_back(
                    cdfg.block(r.branch).name + ":" + name);
                continue;
            }
            NodeId sel = dfg.addNode(Opcode::Select, pred, tv, fv,
                                     name + ".sel");
            dfg.addOutput(name, sel);
            emitted.insert(name);
        }
        for (const auto &[name, op] : pending_cond_outputs) {
            if (emitted.count(name) || op.kind != OperandKind::Node)
                continue;
            dfg.addOutput(name, op.ref);
        }

        result.notes.push_back(
            "merged branch '" + cdfg.block(r.branch).name +
            "' with lanes '" + cdfg.block(r.takenBlock).name +
            "'/'" + cdfg.block(r.notTakenBlock).name + "' (" +
            std::to_string(dfg.numNodes()) + " ops)");
        remap[bb.id] = nb;
        remap[r.takenBlock] = nb;
        remap[r.notTakenBlock] = nb;
    }

    for (const CfgEdge &e : cdfg.edges()) {
        auto si = remap.find(e.src);
        auto di = remap.find(e.dst);
        if (si == remap.end() || di == remap.end())
            continue;
        if (si->second == di->second)
            continue;
        // A merged branch's conditional edges collapse into the
        // region (same-block, skipped above); conditional edges of
        // *unmerged* branches must keep their kind so a later
        // fixpoint round can still recognize the region.
        EdgeKind kind = e.kind;
        if (region_of_branch.count(e.src) &&
            (kind == EdgeKind::Taken || kind == EdgeKind::NotTaken))
            kind = EdgeKind::Fall;
        bool dup = false;
        for (const CfgEdge &f : out.successors(si->second))
            if (f.dst == di->second && f.kind == kind)
                dup = true;
        if (!dup)
            out.addEdge(si->second, di->second, kind);
    }
    return true;
}

} // namespace

LoweringPredication
predicateForLowering(const Cdfg &cdfg,
                     const std::map<std::string, Word> &defaults)
{
    LoweringPredication result;
    result.cdfg = cdfg;
    // Fixpoint: an inner merge can turn an outer branch's lanes
    // into plain blocks (nested diamonds).
    for (int round = 0; round < 8; ++round) {
        Cdfg next(result.cdfg.name());
        if (!mergeOnce(result.cdfg, defaults, result, next))
            break;
        result.cdfg = std::move(next);
    }
    return result;
}

std::map<BlockId, int>
predicatedOpCounts(const Cdfg &cdfg)
{
    std::map<BlockId, int> counts;
    for (const BasicBlock &bb : cdfg.blocks())
        counts[bb.id] = bb.dfg.numNodes();

    // Charge each branch target's operators to the branch block and
    // add one select per live-out pair, so both lanes occupy PEs.
    for (const BasicBlock &bb : cdfg.blocks()) {
        if (bb.kind != BlockKind::Branch)
            continue;
        for (const CfgEdge &e : cdfg.successors(bb.id)) {
            if (e.kind == EdgeKind::Taken ||
                e.kind == EdgeKind::NotTaken) {
                counts[bb.id] +=
                    cdfg.block(e.dst).dfg.numNodes();
                counts[e.dst] = 0;
            }
        }
        counts[bb.id] += 1; // the select at the join.
    }
    return counts;
}

} // namespace marionette

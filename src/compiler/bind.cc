/**
 * @file
 * The bind pass: resolves every region's machine data — trip
 * counts (including geometric-loop simulation and the static caps
 * of while-form loops), region spans, induction ports, and the
 * statically-evaluated init-block seeds.
 *
 * bind keeps checking after the first problem so a kernel with
 * several missing bounds reports all of them (CompileReport::fail
 * records the subsequent ones as notes).
 */

#include <algorithm>
#include <sstream>

#include "compiler/pipeline.h"

namespace marionette
{

namespace
{

/** Resolve trips/start for one loop region from the machine data. */
bool
bindLoop(Compilation &cc, Region &r)
{
    if (r.kind == RegionKind::WhileLoop) {
        auto it = cc.spec.whileBounds.find(r.headerName);
        if (it == cc.spec.whileBounds.end())
            return cc.fail(kPassBind,
                           "while-form loop '" + r.headerName +
                               "' has no static iteration cap in "
                               "the machine data");
        if (it->second <= 0)
            return cc.fail(kPassBind,
                           "while-form loop '" + r.headerName +
                               "' has a degenerate iteration cap");
        r.start = 0;
        r.trips = it->second;
        return true;
    }

    auto it = cc.spec.loopBounds.find(r.headerName);
    if (it == cc.spec.loopBounds.end())
        return cc.fail(kPassBind, "no trip-count data for loop '" +
                                      r.headerName + "'");
    const MachineLoopBound &b = it->second;
    if (b.step != r.step)
        return cc.fail(kPassBind,
                       "loop '" + r.headerName +
                           "' step mismatch between CDFG and "
                           "machine data");
    if (b.step <= 0 || b.bound <= b.start)
        return cc.fail(kPassBind,
                       "loop '" + r.headerName +
                           "' has a degenerate trip count");
    r.start = b.start;
    if (r.geometric) {
        // iv = start << (step * k) while iv < bound.
        if (b.start <= 0)
            return cc.fail(kPassBind,
                           "geometric loop '" + r.headerName +
                               "' needs a positive start value");
        Word trips = 0;
        for (Word v = b.start; v < b.bound; v <<= b.step) {
            ++trips;
            if (trips > 64)
                break;
        }
        r.trips = trips;
    } else {
        r.trips = (b.bound - b.start + b.step - 1) / b.step;
    }
    auto iv = cc.spec.inductionPorts.find(r.headerName);
    if (iv != cc.spec.inductionPorts.end())
        r.ivPort = iv->second;
    return true;
}

bool
bindRegion(Compilation &cc, Region &r)
{
    bool ok = true;
    if (r.kind == RegionKind::CountedLoop ||
        r.kind == RegionKind::WhileLoop)
        ok = bindLoop(cc, r);
    for (Region &c : r.children)
        ok = bindRegion(cc, c) && ok;
    for (Region &c : r.elseChildren)
        ok = bindRegion(cc, c) && ok;
    return ok;
}

Word computeSpan(Region &r);

Word
seqSpan(std::vector<Region> &children)
{
    Word s = 0;
    for (Region &c : children)
        s += computeSpan(c);
    return s;
}

Word
computeSpan(Region &r)
{
    switch (r.kind) {
      case RegionKind::Block:
        r.span = 0;
        break;
      case RegionKind::CountedLoop:
      case RegionKind::WhileLoop:
        r.span = r.trips * std::max<Word>(1, seqSpan(r.children));
        break;
      case RegionKind::Cond:
        r.span = std::max<Word>(
            std::max(seqSpan(r.children),
                     seqSpan(r.elseChildren)),
            1);
        break;
      case RegionKind::Seq:
        r.span = seqSpan(r.children);
        break;
    }
    return r.span;
}

} // namespace

// ------------------------------------------------------------------
// Pass 5: bind
// ------------------------------------------------------------------

bool
passBind(Compilation &cc)
{
    if (!cc.spec.available)
        return cc.fail(kPassBind,
                       "workload provides no machine-run data "
                       "(inputs, trip counts, golden streams)");

    bool ok = true;
    for (Region &phase : cc.top.phases)
        ok = bindRegion(cc, phase) && ok;
    if (!ok)
        return false;

    // Statically evaluate the init blocks (seed values for
    // loop-carried recurrences; e.g. CRC's crc = 0xffffffff).
    for (BlockId b : cc.top.initBlocks) {
        const Dfg &dfg = cc.cdfg.block(b).dfg;
        if (!dfg.inputs().empty())
            return cc.fail(kPassBind,
                           "init block '" + cc.cdfg.block(b).name +
                               "' consumes live-ins");
        std::map<NodeId, Word> val;
        for (const DfgNode &n : dfg.nodes()) {
            const OpInfo &info = opInfo(n.op);
            if (info.isMemory || info.isControl)
                return cc.fail(kPassBind,
                               "init block '" +
                                   cc.cdfg.block(b).name +
                                   "' is not compile-time "
                                   "evaluable");
            auto v = [&](const Operand &o) -> Word {
                if (o.kind == OperandKind::Immediate)
                    return o.ref;
                if (o.kind == OperandKind::Node)
                    return val.at(o.ref);
                return 0;
            };
            val[n.id] = n.op == Opcode::Const
                            ? n.a.ref
                            : evalOp(n.op, v(n.a), v(n.b), v(n.c));
        }
        for (const DfgOutput &o : dfg.outputs())
            cc.initEnv[o.name] = val.at(o.producer);
    }
    if (!cc.top.tailBlocks.empty())
        cc.report.note(kPassBind,
                       std::to_string(cc.top.tailBlocks.size()) +
                           " tail block(s) after the last loop "
                           "carry no machine semantics; skipped");

    std::uint64_t total = 0;
    for (Region &phase : cc.top.phases)
        total += computeSpan(phase);
    cc.report.note(kPassBind,
                   std::to_string(total) +
                       " flat iterations across all phases");
    if (total > (1u << 24))
        return cc.fail(kPassBind,
                       "flattened trip count too large for the "
                       "cycle-accurate machine");
    return true;
}

} // namespace marionette

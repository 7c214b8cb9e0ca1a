/**
 * @file
 * Pass 4: unroll — the spatial replication planner.
 *
 * Decides, per top-level counted phase, how many PE replicas of the
 * striped loop body the lowering should build.  Replica r covers
 * source iterations r, r+F, r+2F, ... (strided partitioning), so
 * each replica owns a disjoint stripe of the iteration space and
 * the per-iteration memory it touches.
 *
 * The pass runs before bind (trip counts are read straight from the
 * workload machine data) and only *plans*: the lower pass applies
 * the plan by cloning the bound region tree per replica with
 * rewritten start/step/trips, and may refine the factor downward
 * when the replicated body does not fit the alive-PE budget.
 *
 * Legality is re-proven here even for author-annotated loops
 * (WorkloadMachineSpec::parallelLoops):
 *
 *  - no while-form loop inside the phase (dynamic trip counts make
 *    the stripe partition data-dependent);
 *  - no geometric striped header (stripes are additive strides);
 *  - no memory recurrence: an array both loaded and stored within
 *    the phase serializes iterations through the scratchpad;
 *  - no genuine loop-carried value: every name consumed across
 *    slots must be re-defined, independently of its prior value,
 *    by a block that executes at the first slot of every stripe
 *    iteration (e.g. GEMM's zero_sum re-seeding `sum` at each
 *    (i, j) body entry) — otherwise replica boundaries would
 *    observe a stale value from a different stripe;
 *  - no round-reset state on the striped header itself (it is
 *    seeded once per phase, i.e. carried across the very
 *    iterations the stripes partition).
 *
 * Phases that fail a check keep factor 1 and the reason is pinned
 * in the compile report (tests assert these diagnostics).
 */

#include <algorithm>
#include <set>
#include <sstream>
#include <vector>

#include "compiler/pipeline.h"

namespace marionette
{

namespace
{

/**
 * Blocks that execute at the first flattened slot of every
 * iteration of @p body's owner: boundary blocks ahead of the first
 * spanful child, then recursively the first spanful child's own
 * leading blocks.  A body with no spanful children is a single
 * slot, so every block qualifies.  Cond lanes never qualify (their
 * execution is data-dependent).
 */
void
collectLeadingBlocks(const std::vector<Region> &body,
                     std::vector<BlockId> &out)
{
    bool sawSpanful = false;
    for (const Region &c : body) {
        switch (c.kind) {
          case RegionKind::Block:
            if (!sawSpanful)
                out.push_back(c.block);
            break;
          case RegionKind::Seq:
            if (!sawSpanful)
                collectLeadingBlocks(c.children, out);
            sawSpanful = true;
            break;
          case RegionKind::CountedLoop:
          case RegionKind::WhileLoop:
            if (!sawSpanful)
                collectLeadingBlocks(c.children, out);
            sawSpanful = true;
            break;
          case RegionKind::Cond:
            sawSpanful = true;
            break;
        }
    }
}

/** Does @p dfg's output port @p name depend (transitively) on its
 *  own input port of the same name? */
bool
outputDependsOnInput(const Dfg &dfg, const std::string &name)
{
    const int port = dfg.findInput(name);
    const int out = dfg.findOutput(name);
    if (out < 0)
        return false;
    if (port < 0)
        return false;
    std::vector<char> hits(dfg.nodes().size(), 0);
    for (const DfgNode &n : dfg.nodes()) {
        auto feeds = [&](const Operand &o) {
            return (o.kind == OperandKind::Input && o.ref == port) ||
                   (o.kind == OperandKind::Node && hits[o.ref]);
        };
        hits[n.id] = feeds(n.a) || feeds(n.b) || feeds(n.c);
    }
    return hits[dfg.outputs()[out].producer];
}

/**
 * Is @p dfg's definition of @p name a pure pass-through — a Copy
 * chain from its own same-named input?  Such a latch can never
 * change the value: it stays at its boot seed at every slot, in
 * every replica, so it is not a real loop-carried dependence.
 */
bool
isPassThrough(const Dfg &dfg, const std::string &name)
{
    const int port = dfg.findInput(name);
    const int out = dfg.findOutput(name);
    if (out < 0 || port < 0)
        return false;
    NodeId at = dfg.outputs()[out].producer;
    for (int guard = 0;
         guard < static_cast<int>(dfg.nodes().size()); ++guard) {
        const DfgNode &n = dfg.nodes()[at];
        if (n.op != Opcode::Copy)
            return false;
        if (n.a.kind == OperandKind::Input)
            return n.a.ref == port;
        if (n.a.kind != OperandKind::Node)
            return false;
        at = n.a.ref;
    }
    return false;
}

/**
 * Can @p dfg's input @p name reach an effect — a Store node, or an
 * output port whose name is already known live?
 */
bool
inputFeedsEffect(const Dfg &dfg, const std::string &name,
                 const std::set<std::string> &live)
{
    const int port = dfg.findInput(name);
    if (port < 0)
        return false;
    std::vector<char> hits(dfg.nodes().size(), 0);
    for (const DfgNode &n : dfg.nodes()) {
        auto feeds = [&](const Operand &o) {
            return (o.kind == OperandKind::Input && o.ref == port) ||
                   (o.kind == OperandKind::Node && hits[o.ref]);
        };
        hits[n.id] = feeds(n.a) || feeds(n.b) || feeds(n.c);
        if (hits[n.id] && n.op == Opcode::Store)
            return true;
    }
    for (const DfgOutput &out : dfg.outputs())
        if (live.count(out.name) != 0 && hits[out.producer])
            return true;
    return false;
}

/**
 * Names whose value can reach a side effect of @p phase: observed
 * ports and store operands, closed backwards over the name-level
 * dataflow.  Anything else is dead plumbing (e.g. a latch block's
 * structural token) and cannot leak state across stripes.
 */
std::set<std::string>
liveNames(const Compilation &cc, const Region &phase)
{
    std::set<std::string> live(cc.spec.observePorts.begin(),
                               cc.spec.observePorts.end());
    bool changed = true;
    while (changed) {
        changed = false;
        phase.forEach([&](const Region &r) {
            if (r.kind != RegionKind::Block)
                return;
            const Dfg &dfg = cc.cdfg.block(r.block).dfg;
            for (const DfgInput &in : dfg.inputs()) {
                if (live.count(in.name) != 0)
                    continue;
                if (inputFeedsEffect(dfg, in.name, live)) {
                    live.insert(in.name);
                    changed = true;
                }
            }
        });
    }
    return live;
}

/** Region-wide name usage of one phase. */
struct PhaseNames
{
    std::set<std::string> consumed;   ///< input ports of any block
    std::set<std::string> defined;    ///< output ports of any block
    std::set<std::string> loadArrays; ///< Load node names ("" = base 0)
    std::set<std::string> storeArrays;
    bool hasWhile = false;
};

PhaseNames
scanPhase(const Compilation &cc, const Region &phase)
{
    PhaseNames pn;
    phase.forEach([&](const Region &r) {
        if (r.kind == RegionKind::WhileLoop)
            pn.hasWhile = true;
        if (r.kind != RegionKind::Block)
            return;
        const Dfg &dfg = cc.cdfg.block(r.block).dfg;
        for (const DfgInput &in : dfg.inputs())
            pn.consumed.insert(in.name);
        for (const DfgOutput &out : dfg.outputs())
            pn.defined.insert(out.name);
        for (const DfgNode &n : dfg.nodes()) {
            if (n.op == Opcode::Load)
                pn.loadArrays.insert(n.name);
            else if (n.op == Opcode::Store)
                pn.storeArrays.insert(n.name);
        }
    });
    return pn;
}

/** First blocking legality problem of striping @p phase, or "". */
std::string
stripeObstacle(const Compilation &cc, const Region &phase)
{
    if (phase.geometric)
        return "geometric induction '" + phase.headerName +
               "' has no additive stripe";

    const PhaseNames pn = scanPhase(cc, phase);
    if (pn.hasWhile)
        return "while-form loop inside the phase makes the stripe "
               "partition data-dependent";

    for (const std::string &arr : pn.storeArrays) {
        if (pn.loadArrays.count(arr) != 0)
            return "memory recurrence on array '" +
                   (arr.empty() ? std::string("<anon>") : arr) +
                   "' (loaded and stored) forbids replication";
    }

    auto rr = cc.spec.roundResets.find(phase.headerName);
    if (rr != cc.spec.roundResets.end() && !rr->second.empty())
        return "round-reset state '" + rr->second.begin()->first +
               "' is carried across the striped iterations";

    // Loop-carried candidates: names both produced and consumed by
    // blocks of the phase.  Induction streams are per-slot values
    // the generator rebuilds, never carried.
    std::set<std::string> ivNames;
    phase.forEach([&](const Region &r) {
        if (r.kind != RegionKind::CountedLoop &&
            r.kind != RegionKind::WhileLoop)
            return;
        auto iv = cc.spec.inductionPorts.find(r.headerName);
        if (iv != cc.spec.inductionPorts.end())
            ivNames.insert(iv->second);
    });

    std::vector<BlockId> leading;
    collectLeadingBlocks(phase.children, leading);
    const std::set<std::string> live = liveNames(cc, phase);

    for (const std::string &name : pn.consumed) {
        if (pn.defined.count(name) == 0 || ivNames.count(name) != 0)
            continue;
        // Dead names (unreachable from any store or observed port)
        // carry no semantics; the lowering's liveness pruning drops
        // them anyway.
        if (live.count(name) == 0)
            continue;
        // Inert latches (every definition a Copy of the value
        // itself, e.g. a latch block's structural pass-through)
        // hold their boot seed forever; nothing can leak across
        // stripes through them.
        bool inert = true;
        phase.forEach([&](const Region &r) {
            if (r.kind != RegionKind::Block)
                return;
            const Dfg &dfg = cc.cdfg.block(r.block).dfg;
            if (dfg.findOutput(name) >= 0 &&
                !isPassThrough(dfg, name))
                inert = false;
        });
        if (inert)
            continue;
        // The first leading-slot block mentioning the name must
        // re-define it without reading its prior value; then every
        // stripe iteration starts from a fresh value and replica
        // boundaries can never leak state.
        bool safe = false;
        bool decided = false;
        for (BlockId b : leading) {
            const Dfg &dfg = cc.cdfg.block(b).dfg;
            const bool defines = dfg.findOutput(name) >= 0;
            const bool consumes = dfg.findInput(name) >= 0;
            if (!defines && !consumes)
                continue;
            safe = defines && !outputDependsOnInput(dfg, name);
            decided = true;
            break;
        }
        if (!decided || !safe)
            return "loop-carried value '" + name +
                   "' forbids replication";
    }
    return {};
}

/** Largest divisor of @p trips that is <= @p cap. */
int
largestDivisor(Word trips, int cap)
{
    for (int f = std::min<Word>(cap, trips); f > 1; --f)
        if (trips % f == 0)
            return f;
    return 1;
}

} // namespace

bool
passUnroll(Compilation &cc)
{
    cc.unroll.assign(cc.top.phases.size(), 1);
    if (cc.options.unrollFactor == 1) {
        cc.report.note(kPassUnroll, "replication off by option");
        return true;
    }
    if (!cc.spec.available)
        return true; // bind will reject with its own diagnostic.

    // Auto mode caps the candidate factor; the lower pass refines
    // it further down (by divisors) until the replicated body fits
    // the alive-PE budget.
    const int cap =
        cc.options.unrollFactor > 1 ? cc.options.unrollFactor : 16;

    for (std::size_t p = 0; p < cc.top.phases.size(); ++p) {
        const Region &phase = cc.top.phases[p];
        if (phase.kind != RegionKind::CountedLoop)
            continue;

        const std::string obstacle = stripeObstacle(cc, phase);
        if (!obstacle.empty()) {
            cc.report.note(kPassUnroll, "phase '" +
                                            phase.headerName +
                                            "': " + obstacle);
            continue;
        }
        if (cc.spec.parallelLoops.count(phase.headerName) == 0) {
            cc.report.note(kPassUnroll,
                           "phase '" + phase.headerName +
                               "': stripe-legal but not annotated "
                               "parallel; factor stays 1");
            continue;
        }

        auto it = cc.spec.loopBounds.find(phase.headerName);
        if (it == cc.spec.loopBounds.end() ||
            it->second.step != phase.step ||
            it->second.step <= 0 ||
            it->second.bound <= it->second.start)
            continue; // bind reports the malformed bound.
        const MachineLoopBound &b = it->second;
        const Word trips =
            (b.bound - b.start + b.step - 1) / b.step;

        const int factor = largestDivisor(trips, cap);
        if (factor <= 1) {
            cc.report.note(kPassUnroll,
                           "phase '" + phase.headerName +
                               "': no divisor of " +
                               std::to_string(trips) +
                               " trips fits the factor cap");
            continue;
        }
        cc.unroll[p] = factor;
        std::ostringstream note;
        note << "phase '" << phase.headerName
             << "': stripe-safe, candidate factor " << factor
             << " over " << trips << " iterations";
        cc.report.note(kPassUnroll, note.str());
    }
    return true;
}

} // namespace marionette

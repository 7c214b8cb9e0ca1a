/**
 * @file
 * The lower pass: region tree -> flattened phases.
 *
 * Every top-level loop region becomes one FlatPhase: a single
 * counted stream of `span` slots whose body DFG is the *iteration
 * template*.  The recursive walk assigns each region a slot range
 * and a gate:
 *
 *  - CountedLoop   r = u / bodySpan selects the iteration, the
 *                  local offset u % bodySpan addresses the body;
 *                  induction values are reconstructed from r
 *                  (additive or geometric).
 *  - Sibling loops children of one Seq split the slot range
 *                  [0,S1) [S1,S1+S2) ... and run mode-gated; plain
 *                  blocks between siblings ride the boundary slots.
 *  - WhileLoop     a carried `active` flag AND-accumulates the
 *                  header's exit predicate; slots past the dynamic
 *                  exit are masked (the guarded-exit lowering).
 *  - Cond          the branch predicate gates both lanes
 *                  (if-conversion); lanes overlay the same slots.
 *
 * Gates compose by conjunction.  A gated definition selects against
 * the incoming value of the same name; a gated Store/Load carries
 * the gate as a predicate operand, which the PE honours by
 * skipping the memory access — so masked slots have no
 * architectural effect and the flattening stays bit-exact.
 *
 * Values consumed before they are defined in the template are
 * loop-carried: they become extra body inputs fed by the producer
 * of their end-of-slot value, seeded at boot.
 *
 * Spatial unrolling (the unroll pass's plan) is applied here: a
 * stripe-safe phase at factor F is lowered F times into the *same*
 * FlatPhase through one shared BodyBuilder, each time against a
 * clone of the bound region whose striped header is rewritten to
 * replica r's stripe (start += r*step, step *= F, trips /= F).
 * CSE automatically shares every replica-invariant node (the slot
 * decode, induction arithmetic on the shared stream), so one loop
 * generator feeds all replicas while the per-replica loads, stores
 * and recurrences replicate across PEs.  The factor is refined
 * downward (over divisors of the trip count) until the replicated
 * body fits the alive-PE pool — fault plans shrink the pool, so a
 * discovery-mode recompile may legitimately pick a smaller factor.
 */

#include <algorithm>
#include <array>
#include <limits>
#include <sstream>
#include <tuple>

#include "compiler/pipeline.h"

namespace marionette
{

namespace
{

bool
isPow2(Word v)
{
    return v > 0 && (v & (v - 1)) == 0;
}

int
log2Of(Word v)
{
    int s = 0;
    while ((Word(1) << s) < v)
        ++s;
    return s;
}

// ------------------------------------------------------------------
// Flat-body construction: CSE + constant folding
// ------------------------------------------------------------------

class BodyBuilder
{
  public:
    BodyBuilder() { dfg_.addInput("t"); }

    Dfg &dfg() { return dfg_; }

    /** How many sign selects absorbSign() and clamp selects
     *  selectIsClamp() rewrote (one lower note each). */
    int signSelectsAbsorbed() const { return signAbsorbed_; }
    int clampSelectsFolded() const { return clampsFolded_; }

    /** Emit (or reuse) a node; folds all-immediate pure ops. */
    Operand
    emit(Opcode op, Operand a, Operand b = Operand::none(),
         Operand c = Operand::none(), const std::string &name = {})
    {
        const OpInfo &info = opInfo(op);
        bool pure = !info.isMemory && !info.isControl;
        auto isImmish = [](const Operand &o) {
            return o.kind == OperandKind::Immediate ||
                   o.kind == OperandKind::None;
        };
        if (pure && isImmish(a) && isImmish(b) && isImmish(c))
            return Operand::imm(evalOp(op, a.ref, b.ref, c.ref));

        if (op == Opcode::Select) {
            Operand folded = foldSelect(a, b, c, name);
            if (folded.kind != OperandKind::None)
                return folded;
        }
        if (op == Opcode::Add) {
            Operand absorbed = absorbSign(a, b, name);
            if (absorbed.kind != OperandKind::None)
                return absorbed;
        }

        if (pure) {
            auto key = std::make_tuple(
                op, static_cast<int>(a.kind), a.ref,
                static_cast<int>(b.kind), b.ref,
                static_cast<int>(c.kind), c.ref);
            auto it = cse_.find(key);
            if (it != cse_.end())
                return Operand::node(it->second);
            NodeId id = dfg_.addNode(op, a, b, c, name);
            cse_[key] = id;
            return Operand::node(id);
        }
        return Operand::node(dfg_.addNode(op, a, b, c, name));
    }

  private:
    /**
     * Select(cond, t, f) rewritten to the lane it provably yields,
     * or to one cheaper node.  Every rule is value-exact on every
     * input, and each takes the select's execute and hop off any
     * loop-carried cycle that runs through it.  Returns a none()
     * operand when no rule applies.
     */
    Operand
    foldSelect(const Operand &cond, const Operand &t,
               const Operand &f, const std::string &name)
    {
        // A constant condition picks its lane at compile time
        // (SCD's g-node steers on the scalar live-in u = 0).
        if (cond.kind == OperandKind::Immediate)
            return cond.ref != 0 ? t : f;
        if (gateAbsorbsSelect(cond, t, f))
            return t;
        if (cond.kind != OperandKind::Node)
            return Operand::none();
        if (selectIsClamp(cond, t, f)) {
            ++clampsFolded_;
            return t;
        }
        Opcode mm = selectAsMinMax(cond, t, f);
        if (mm != Opcode::Nop) {
            const DfgNode &cmp = dfg_.node(cond.ref);
            return emit(mm, cmp.a, cmp.b, Operand::none(), name);
        }
        Operand three = selectAsMinMax3(cond, t, f, name);
        if (three.kind != OperandKind::None)
            return three;
        Operand x = selectAsAbs(cond, t, f);
        if (x.kind != OperandKind::None)
            return emit(Opcode::Abs, x, Operand::none(),
                        Operand::none(), name);
        return Operand::none();
    }

    /**
     * Select(p, x op Load(addr, pred = p), x) is x op Load(...) for
     * op in {Add, Xor, Or}, either operand order, and for Sub with
     * the load as subtrahend: where p is 0 the PE skips the masked
     * load and yields 0, a right identity of each.  The load must
     * carry exactly p; under any other predicate, or none, it may
     * yield a nonzero word there.  CRC's byte xor-in, a boundary
     * block gated to its byte's first slot, is the motivating case.
     */
    bool
    gateAbsorbsSelect(const Operand &p, const Operand &t,
                      const Operand &x) const
    {
        if (t.kind != OperandKind::Node)
            return false;
        auto loadGatedByP = [&](const Operand &o) {
            return o.kind == OperandKind::Node &&
                   dfg_.node(o.ref).op == Opcode::Load &&
                   dfg_.node(o.ref).b == p;
        };
        const DfgNode &n = dfg_.node(t.ref);
        switch (n.op) {
          case Opcode::Add:
          case Opcode::Xor:
          case Opcode::Or:
            return (n.a == x && loadGatedByP(n.b)) ||
                   (n.b == x && loadGatedByP(n.a));
          case Opcode::Sub:
            return n.a == x && loadGatedByP(n.b);
          default:
            return false;
        }
    }

    /**
     * Add(x, Select(c, Neg(v), v)) is Select(c, Sub(x, v), Add(x, v)),
     * either operand order and the lanes mirrored: evalOp's Add, Sub
     * and Neg all wrap mod 2^32, so x + Neg(v) is x - v on every
     * word.  Where the select feeds nothing else the PE count stays,
     * and Neg leaves any carried cycle through x (ADPCM's
     * `predicted`).  Returns a none() operand when neither operand is
     * such a select.
     */
    Operand
    absorbSign(const Operand &a, const Operand &b,
               const std::string &name)
    {
        auto negOf = [&](const Operand &n, const Operand &v) {
            return n.kind == OperandKind::Node &&
                   dfg_.node(n.ref).op == Opcode::Neg &&
                   dfg_.node(n.ref).a == v;
        };
        for (const bool selectFirst : {false, true}) {
            const Operand &s = selectFirst ? a : b;
            if (s.kind != OperandKind::Node ||
                dfg_.node(s.ref).op != Opcode::Select)
                continue;
            // Copies: emitting may move the node table.
            const DfgNode sel = dfg_.node(s.ref);
            const bool negTaken = negOf(sel.b, sel.c);
            if (!negTaken && !negOf(sel.c, sel.b))
                continue;
            const Operand x = selectFirst ? b : a;
            const Operand v = negTaken ? sel.c : sel.b;
            ++signAbsorbed_;
            const Operand sub = emit(Opcode::Sub, x, v);
            const Operand add = emit(Opcode::Add, x, v);
            return emit(Opcode::Select, sel.a, negTaken ? sub : add,
                        negTaken ? add : sub, name);
        }
        return Operand::none();
    }

    /**
     * Select(Or(x < lo, x > hi), Min(Max(x, lo), hi), x) is the clamp
     * Min(Max(x, lo), hi) for immediates lo <= hi: where the
     * condition is 0, lo <= x <= hi, and there the clamp returns x.
     * Either operand order of the Or, the Min and the Max, and the
     * compares either way round (lo > x, hi < x).  ADPCM's step-index
     * clamp is the motivating case.
     */
    bool
    selectIsClamp(const Operand &cond, const Operand &t,
                  const Operand &x) const
    {
        const DfgNode &orNode = dfg_.node(cond.ref);
        if (orNode.op != Opcode::Or || t.kind != OperandKind::Node)
            return false;
        // A strict compare of x against an immediate k: whether it
        // holds for x below k, and k; false for any other node.
        auto bound = [&](const Operand &o, bool &below, Word &k) {
            if (o.kind != OperandKind::Node)
                return false;
            const DfgNode &cmp = dfg_.node(o.ref);
            const bool xFirst = cmp.a == x;
            const Operand &imm = xFirst ? cmp.b : cmp.a;
            if ((cmp.op != Opcode::CmpLt && cmp.op != Opcode::CmpGt) ||
                !(xFirst || cmp.b == x) ||
                imm.kind != OperandKind::Immediate)
                return false;
            below = (cmp.op == Opcode::CmpLt) == xFirst;
            k = imm.ref;
            return true;
        };
        bool belowA = false, belowB = false;
        Word ka = 0, kb = 0;
        if (!bound(orNode.a, belowA, ka) || !bound(orNode.b, belowB, kb) ||
            belowA == belowB)
            return false;
        const Word lo = belowA ? ka : kb;
        const Word hi = belowA ? kb : ka;
        if (lo > hi)
            return false;
        // t = Min(Max(x, #lo), #hi), either operand order in each.
        auto withImm = [&](const Operand &o, Opcode op, Word k,
                           Operand &other) {
            if (o.kind != OperandKind::Node)
                return false;
            const DfgNode &n = dfg_.node(o.ref);
            if (n.op != op)
                return false;
            const Operand imm = Operand::imm(k);
            if (!(n.a == imm) && !(n.b == imm))
                return false;
            other = n.a == imm ? n.b : n.a;
            return true;
        };
        Operand inner, base;
        return withImm(t, Opcode::Min, hi, inner) &&
               withImm(inner, Opcode::Max, lo, base) && base == x;
    }

    /**
     * Select(x < 0, Neg(x), x) is Abs(x), and so are its mirrored
     * forms: the zero on either side of the compare, the lanes
     * swapped for x > 0, and the non-strict compares (Neg(0) = 0,
     * so both lanes agree on a tie).  Returns x, or a none()
     * operand.  ADPCM's sign fold of `diff` is the motivating case.
     */
    Operand
    selectAsAbs(const Operand &cond, const Operand &t,
                const Operand &f) const
    {
        const DfgNode &cmp = dfg_.node(cond.ref);
        auto isZero = [](const Operand &o) {
            return o.kind == OperandKind::Immediate && o.ref == 0;
        };
        if (!isZero(cmp.a) && !isZero(cmp.b))
            return Operand::none();
        const bool xFirst = isZero(cmp.b);
        const Operand &x = xFirst ? cmp.a : cmp.b;
        bool less;
        switch (cmp.op) {
          case Opcode::CmpLt:
          case Opcode::CmpLe:
            less = true;
            break;
          case Opcode::CmpGt:
          case Opcode::CmpGe:
            less = false;
            break;
          default:
            return Operand::none();
        }
        // The condition holds for negative x (x < 0, or 0 > x).
        const bool negTaken = less == xFirst;
        const Operand &neg = negTaken ? t : f;
        const Operand &pos = negTaken ? f : t;
        if (!(pos == x) || neg.kind != OperandKind::Node)
            return Operand::none();
        const DfgNode &n = dfg_.node(neg.ref);
        return n.op == Opcode::Neg && n.a == x ? x : Operand::none();
    }

    /**
     * Select(cmp(x,y), x, y) is a one-node Min/Max (value-exact:
     * on ties both sides of the select are the same word).  NW's
     * running score maximum is the motivating case — the fold
     * shortens the phase's recurrence cycle by one PE hop.
     */
    Opcode
    selectAsMinMax(const Operand &cond, const Operand &b,
                   const Operand &c) const
    {
        const DfgNode &cmp = dfg_.node(cond.ref);
        const bool straight = b == cmp.a && c == cmp.b;
        const bool flipped = b == cmp.b && c == cmp.a;
        if (!straight && !flipped)
            return Opcode::Nop;
        switch (cmp.op) {
          case Opcode::CmpGe:
          case Opcode::CmpGt:
            return straight ? Opcode::Max : Opcode::Min;
          case Opcode::CmpLt:
          case Opcode::CmpLe:
            return straight ? Opcode::Min : Opcode::Max;
          default:
            return Opcode::Nop;
        }
    }

    /**
     * Select(cmp(a, b), Max(a, c3), Max(b, c3)) is the three-way
     * maximum Max(a, Max(b, c3)) — value-exact for every compare
     * direction and every tie, because both select lanes then
     * equal max(a, b, c3).  (Dual for Min with the lanes holding
     * the compare *loser*.)  The rewrite collapses the two-lane
     * diamond into one chain: NW's pick-the-best-of-three score
     * keeps one Max on the carried cycle instead of two parallel
     * lanes that cannot both sit hop-1 around the placement ring.
     * Returns a none() operand when the pattern does not match.
     */
    Operand
    selectAsMinMax3(const Operand &cond, const Operand &t,
                    const Operand &f, const std::string &name)
    {
        if (t.kind != OperandKind::Node ||
            f.kind != OperandKind::Node)
            return Operand::none();
        const DfgNode &cmp = dfg_.node(cond.ref);
        const DfgNode &tn = dfg_.node(t.ref);
        const DfgNode &fn = dfg_.node(f.ref);
        if (tn.op != fn.op ||
            (tn.op != Opcode::Max && tn.op != Opcode::Min))
            return Operand::none();

        // The operand the compare declares greater (or equal).
        Operand hi, lo;
        switch (cmp.op) {
          case Opcode::CmpGe:
          case Opcode::CmpGt:
            hi = cmp.a;
            lo = cmp.b;
            break;
          case Opcode::CmpLt:
          case Opcode::CmpLe:
            hi = cmp.b;
            lo = cmp.a;
            break;
          default:
            return Operand::none();
        }
        // For Max the taken lane keeps the compare winner; for Min
        // the loser.  The other lane holds the remaining head, and
        // both lanes must share the third operand.
        const Operand &headT = tn.op == Opcode::Max ? hi : lo;
        const Operand &headF = tn.op == Opcode::Max ? lo : hi;
        auto third = [](const DfgNode &n,
                        const Operand &head) -> Operand {
            if (n.a == head)
                return n.b;
            if (n.b == head)
                return n.a;
            return Operand::none();
        };
        Operand c3t = third(tn, headT);
        Operand c3f = third(fn, headF);
        if (c3t.kind == OperandKind::None || !(c3t == c3f))
            return Operand::none();
        return emit(tn.op, headT, f, Operand::none(), name);
    }

    Dfg dfg_;
    int signAbsorbed_ = 0;
    int clampsFolded_ = 0;
    std::map<std::tuple<Opcode, int, Word, int, Word, int, Word>,
             NodeId>
        cse_;
};

// ------------------------------------------------------------------
// Per-phase lowering
// ------------------------------------------------------------------

class PhaseLowering
{
  public:
    /** Lower @p root_in (replica @p replica_in of the phase) into
     *  @p flat_in through the shared builder @p bb_in. */
    PhaseLowering(Compilation &cc_in, const Region &root_in,
                  FlatPhase &flat_in, BodyBuilder &bb_in,
                  int replica_in)
        : cc(cc_in), root(root_in), flat(flat_in), bb(bb_in),
          replica(replica_in)
    {}

    bool runImpl();

  private:
    Compilation &cc;
    const Region &root;
    FlatPhase &flat;
    BodyBuilder &bb;
    int replica;
    std::map<std::string, Operand> env;
    std::set<std::string> definedNames;
    std::map<std::string, int> carriedIdx;
    /** Names whose seed is supplied structurally (round resets,
     *  synthetic while flags): no "unseeded" note for these. */
    std::set<std::string> structuralSeeds;

    /** Report a lower-pass note unless an identical one exists
     *  (replicas and refinement retries re-walk the same code). */
    void
    noteOnce(const std::string &msg)
    {
        for (const CompilerPassNote &n : cc.report.notes)
            if (n.pass == kPassLower && n.message == msg)
                return;
        cc.report.note(kPassLower, msg);
    }

    // ---- small expression helpers ----

    Operand
    andGate(const Operand &a, const Operand &b)
    {
        if (a.kind == OperandKind::None)
            return b;
        if (b.kind == OperandKind::None)
            return a;
        return bb.emit(Opcode::And, a, b);
    }

    Operand
    notOf(const Operand &p)
    {
        return bb.emit(Opcode::CmpEq, p, Operand::imm(0));
    }

    Operand
    eqImm(const Operand &u, Word v)
    {
        return bb.emit(Opcode::CmpEq, u, Operand::imm(v));
    }

    Operand
    divBy(const Operand &u, Word d)
    {
        if (d == 1)
            return u;
        return isPow2(d) ? bb.emit(Opcode::Shr, u,
                                   Operand::imm(log2Of(d)))
                         : bb.emit(Opcode::Div, u, Operand::imm(d));
    }

    Operand
    remBy(const Operand &u, Word d)
    {
        if (d == 1)
            return Operand::imm(0);
        return isPow2(d) ? bb.emit(Opcode::And, u,
                                   Operand::imm(d - 1))
                         : bb.emit(Opcode::Rem, u, Operand::imm(d));
    }

    // ---- name resolution / assignment ----

    Operand
    resolve(const std::string &name, bool &ok)
    {
        ok = true;
        auto e = env.find(name);
        if (e != env.end())
            return e->second;
        if (definedNames.count(name)) {
            // Defined later in the template: loop-carried.
            auto c = carriedIdx.find(name);
            int idx;
            if (c != carriedIdx.end()) {
                idx = c->second;
            } else {
                std::string port =
                    replica == 0
                        ? "carry." + name
                        : "carry.r" + std::to_string(replica) +
                              "." + name;
                idx = bb.dfg().addInput(std::move(port));
                carriedIdx[name] = idx;
                CarriedValue cv;
                cv.name = name;
                cv.inputIdx = idx;
                flat.carried.push_back(cv);
            }
            Operand op = Operand::input(idx);
            env[name] = op;
            return op;
        }
        auto s = cc.spec.scalars.find(name);
        if (s != cc.spec.scalars.end())
            return Operand::imm(s->second);
        auto i = cc.initEnv.find(name);
        if (i != cc.initEnv.end())
            return Operand::imm(i->second);
        ok = false;
        return Operand::none();
    }

    /** Assign @p name; under a gate the definition selects against
     *  the incoming value of the same name. */
    bool
    gatedAssign(const std::string &name, Operand val,
                const Operand &gate, const std::string &where)
    {
        if (gate.kind == OperandKind::None) {
            env[name] = val;
            return true;
        }
        bool ok = true;
        Operand old = resolve(name, ok);
        if (!ok)
            return cc.fail(kPassLower,
                           "gated definition of '" + name +
                               "' in " + where +
                               " has no incoming value");
        if (old == val)
            return true; // pass-through definition.
        env[name] = bb.emit(Opcode::Select, gate, val, old,
                            name + ".gate");
        return true;
    }

    // ---- block inlining ----

    /**
     * Inline one basic block under @p gate.  Stores carry the gate
     * as their predicate operand (no write on masked slots), loads
     * likewise (masked loads produce 0 instead of touching a
     * possibly-garbage address).  @p pred_out, when non-null,
     * captures the steering value of a Branch operator (Cond
     * predicate blocks).
     */
    bool
    inlineBlock(BlockId block, const Operand &gate,
                Operand *pred_out = nullptr)
    {
        const BasicBlock &src = cc.cdfg.block(block);
        const Dfg &dfg = src.dfg;
        std::map<NodeId, Operand> val;

        for (const DfgNode &n : dfg.nodes()) {
            auto operand = [&](const Operand &o,
                               bool &ok) -> Operand {
                ok = true;
                switch (o.kind) {
                  case OperandKind::Node:
                    return val.at(o.ref);
                  case OperandKind::Input:
                    return resolve(
                        dfg.inputs()[static_cast<std::size_t>(
                                         o.ref)]
                            .name,
                        ok);
                  default:
                    return o;
                }
            };
            bool oka = true, okb = true, okc = true;
            Operand a = operand(n.a, oka);
            Operand b = operand(n.b, okb);
            Operand c = operand(n.c, okc);
            if (!oka || !okb || !okc) {
                const Operand &bad =
                    !oka ? n.a : (!okb ? n.b : n.c);
                return cc.fail(
                    kPassLower,
                    "block '" + src.name + "' consumes port '" +
                        dfg.inputs()[static_cast<std::size_t>(
                                         bad.ref)]
                            .name +
                        "' with no reaching definition, binding "
                        "or seed");
            }
            switch (n.op) {
              case Opcode::Const:
                val[n.id] = Operand::imm(n.a.ref);
                break;
              case Opcode::Copy:
                val[n.id] = a;
                break;
              case Opcode::Branch:
                // The branch dissolved into a gate; its value is
                // its steering predicate.
                val[n.id] = a;
                if (pred_out != nullptr)
                    *pred_out = a;
                break;
              case Opcode::Loop:
                // Only header DFGs carry Loop operators; the
                // region walk inlines them deliberately (while
                // conditions) — the operator itself dissolves
                // into its condition operand.
                val[n.id] = a;
                if (pred_out != nullptr)
                    *pred_out = a;
                break;
              case Opcode::Store: {
                // Predicated store: the region gate conjoins with
                // any lane predicate the store already carries
                // (if-converted branches set operand c).
                if (gate.kind != OperandKind::None)
                    c = c.kind == OperandKind::None
                            ? gate
                            : bb.emit(Opcode::And, gate, c);
                val[n.id] = bb.emit(n.op, a, b, c, n.name);
                auto base = cc.spec.arrayBases.find(n.name);
                flat.memBase[val[n.id].ref] =
                    cc.options.memoryBase +
                    (base == cc.spec.arrayBases.end() ? 0
                                                      : base->second);
                break;
              }
              case Opcode::Load: {
                // Predicated load, same conjunction rule.
                if (gate.kind != OperandKind::None)
                    b = b.kind == OperandKind::None
                            ? gate
                            : bb.emit(Opcode::And, gate, b);
                val[n.id] = bb.emit(n.op, a, b, c, n.name);
                auto base = cc.spec.arrayBases.find(n.name);
                flat.memBase[val[n.id].ref] =
                    cc.options.memoryBase +
                    (base == cc.spec.arrayBases.end() ? 0
                                                      : base->second);
                break;
              }
              default:
                val[n.id] = bb.emit(n.op, a, b, c, n.name);
                break;
            }
        }

        for (const DfgOutput &o : dfg.outputs()) {
            if (!gatedAssign(o.name, val.at(o.producer), gate,
                            "block '" + src.name + "'"))
                return false;
        }
        return true;
    }

    // ---- region walkers ----

    bool
    lowerSeq(const std::vector<Region> &children, const Operand &u,
             Word span, const Operand &gate)
    {
        int spanful = 0;
        for (const Region &c : children)
            if (c.kind != RegionKind::Block)
                ++spanful;

        if (spanful == 0) {
            // Straight-line body: runs once per slot when span is
            // 1, else once per execution (entry slot).
            Operand g = span > 1 ? andGate(gate, eqImm(u, 0)) : gate;
            for (const Region &c : children)
                if (!inlineBlock(c.block, g))
                    return false;
            return true;
        }

        Word prefix = 0;
        int seen = 0;
        for (const Region &c : children) {
            if (c.kind == RegionKind::Block) {
                // Boundary blocks: before/between siblings they
                // ride the next sibling's first slot; after the
                // last sibling they ride the final slot.
                Word slot = seen < spanful ? prefix : span - 1;
                Operand g = andGate(gate, eqImm(u, slot));
                if (!inlineBlock(c.block, g))
                    return false;
                continue;
            }
            ++seen;
            Word S = c.span;
            Operand child_u =
                prefix == 0 ? u
                            : bb.emit(Opcode::Sub, u,
                                      Operand::imm(prefix));
            Operand mg = gate;
            if (!(prefix == 0 && S == span)) {
                Operand in_range;
                if (prefix == 0) {
                    in_range = bb.emit(Opcode::CmpLt, u,
                                       Operand::imm(S));
                } else if (prefix + S == span) {
                    in_range = bb.emit(Opcode::CmpGe, u,
                                       Operand::imm(prefix));
                } else {
                    in_range = bb.emit(
                        Opcode::And,
                        bb.emit(Opcode::CmpGe, u,
                                Operand::imm(prefix)),
                        bb.emit(Opcode::CmpLt, u,
                                Operand::imm(prefix + S)));
                }
                mg = andGate(gate, in_range);
            }
            if (!lowerRegion(c, child_u, mg))
                return false;
            prefix += S;
        }
        return true;
    }

    bool
    lowerCounted(const Region &r, const Operand &u,
                 const Operand &gate)
    {
        Word body_span = std::max<Word>(1, r.span / r.trips);
        Operand it_idx =
            body_span == 1 ? u : divBy(u, body_span);
        Operand local = body_span == 1 ? u : remBy(u, body_span);

        // Induction reconstruction.
        Operand iv = it_idx;
        if (r.geometric) {
            Operand shift =
                r.step == 1
                    ? it_idx
                    : bb.emit(Opcode::Mul, it_idx,
                              Operand::imm(r.step));
            iv = bb.emit(Opcode::Shl, Operand::imm(r.start), shift);
        } else {
            if (r.step != 1)
                iv = isPow2(r.step)
                         ? bb.emit(Opcode::Shl, it_idx,
                                   Operand::imm(log2Of(r.step)))
                         : bb.emit(Opcode::Mul, it_idx,
                                   Operand::imm(r.step));
            if (r.start != 0)
                iv = bb.emit(Opcode::Add, iv,
                             Operand::imm(r.start));
        }
        if (!r.ivPort.empty())
            env[r.ivPort] = iv;

        // Round resets: named state re-seeded at every entry of
        // this loop from outside (once per enclosing execution).
        auto resets = cc.spec.roundResets.find(r.headerName);
        if (resets != cc.spec.roundResets.end()) {
            Operand rg = andGate(gate, eqImm(u, 0));
            for (const auto &[name, value] : resets->second) {
                if (!gatedAssign(name, Operand::imm(value), rg,
                                 "round reset of '" + r.headerName +
                                     "'"))
                    return false;
            }
        }

        return lowerSeq(r.children, local, body_span, gate);
    }

    bool
    lowerWhile(const Region &r, const Operand &u,
               const Operand &gate)
    {
        // Guarded-exit lowering: active(0) = cond(0);
        // active(k) = active(k-1) && cond(k).  Effects of slots
        // past the dynamic exit are masked; the enclosing region
        // sized the slot range with the static cap.
        std::string act = "__while." + r.headerName + ".active";
        Operand first = eqImm(u, 0);
        bool ok = true;
        Operand prev = resolve(act, ok);
        (void)ok; // registered in definedNames by run().
        Operand prev_eff = bb.emit(Opcode::Select, first,
                                   Operand::imm(1), prev);

        // Inline the header: its Loop operator dissolves into the
        // exit condition it consumes, captured directly.
        Operand cond = Operand::none();
        if (!inlineBlock(r.header, gate, &cond))
            return false;
        if (cond.kind == OperandKind::None)
            return cc.fail(kPassLower,
                           "while-form loop '" + r.headerName +
                               "' has no recoverable exit "
                               "condition");

        Operand active = bb.emit(Opcode::And, prev_eff, cond);
        if (!gatedAssign(act, active, gate,
                         "while '" + r.headerName + "'"))
            return false;
        Operand g2 = andGate(gate, active);
        return lowerSeq(r.children, u, 1, g2);
    }

    bool
    lowerCond(const Region &r, const Operand &u,
              const Operand &gate)
    {
        Operand pred = Operand::none();
        if (!inlineBlock(r.pred, gate, &pred))
            return false;
        if (pred.kind == OperandKind::None)
            return cc.fail(kPassLower,
                           "branch '" + cc.cdfg.block(r.pred).name +
                               "' has no steering predicate");
        Operand g_then = andGate(gate, pred);
        Operand g_else = andGate(gate, notOf(pred));
        if (!lowerSeq(r.children, u, r.span, g_then))
            return false;
        return lowerSeq(r.elseChildren, u, r.span, g_else);
    }

    bool
    lowerRegion(const Region &r, const Operand &u,
                const Operand &gate)
    {
        switch (r.kind) {
          case RegionKind::CountedLoop:
            return lowerCounted(r, u, gate);
          case RegionKind::WhileLoop:
            return lowerWhile(r, u, gate);
          case RegionKind::Cond:
            return lowerCond(r, u, gate);
          case RegionKind::Block:
            return inlineBlock(r.block, gate);
          case RegionKind::Seq:
            return lowerSeq(r.children, u, r.span, gate);
        }
        return false;
    }
};

bool
PhaseLowering::runImpl()
{
    // Every name defined anywhere in the iteration template —
    // consumed-before-defined resolves as loop-carried.
    root.forEach([&](const Region &r) {
        auto addOutputs = [&](BlockId b) {
            for (const DfgOutput &o :
                 cc.cdfg.block(b).dfg.outputs())
                definedNames.insert(o.name);
        };
        switch (r.kind) {
          case RegionKind::Block:
            addOutputs(r.block);
            break;
          case RegionKind::Cond:
            addOutputs(r.pred);
            break;
          case RegionKind::WhileLoop: {
            addOutputs(r.header);
            std::string act =
                "__while." + r.headerName + ".active";
            definedNames.insert(act);
            structuralSeeds.insert(act);
            break;
          }
          case RegionKind::CountedLoop: {
            auto resets =
                cc.spec.roundResets.find(r.headerName);
            if (resets != cc.spec.roundResets.end()) {
                for (const auto &[name, value] :
                     resets->second) {
                    (void)value;
                    definedNames.insert(name);
                    structuralSeeds.insert(name);
                }
            }
            break;
          }
          case RegionKind::Seq:
            break;
        }
    });

    // Replicas append to a shared FlatPhase: only finalize the
    // carried chains this replica created.
    const std::size_t carriedBase = flat.carried.size();

    flat.trips = root.span;
    if (!lowerRegion(root, Operand::input(0), Operand::none()))
        return false;

    // Finalize carried chains.
    for (std::size_t ci = carriedBase; ci < flat.carried.size();
         ++ci) {
        CarriedValue &cv = flat.carried[ci];
        Operand fin = env.at(cv.name);
        if (fin.kind == OperandKind::Input &&
            fin.ref == static_cast<Word>(cv.inputIdx)) {
            // Pure pass-through: nothing ever updates the
            // value; liveness prunes it.
            cv.finalVal = Operand::none();
            continue;
        }
        if (fin.kind != OperandKind::Node)
            return cc.fail(kPassLower,
                           "loop-carried '" + cv.name +
                               "' collapses to a constant");
        cv.finalVal = fin;
        auto seed = cc.initEnv.find(cv.name);
        if (seed != cc.initEnv.end()) {
            cv.seed = seed->second;
        } else {
            auto s = cc.spec.scalars.find(cv.name);
            if (s != cc.spec.scalars.end()) {
                cv.seed = s->second;
            } else {
                // Reset-gated chains never read their seed; a
                // genuinely unseeded recurrence fails the
                // bit-exact golden validation instead.
                cv.seed = 0;
                if (!structuralSeeds.count(cv.name))
                    noteOnce(
                        "loop-carried '" + cv.name +
                        "' has no seed binding; seeding 0 "
                        "(round-entry reset expected)");
            }
        }
    }
    if (replica == 0)
        flat.finalEnv = env;
    flat.replicaEnvs.push_back(std::move(env));
    return true;
}

/** Liveness: stores + observed ports root the graph; a carried
 *  chain is live only if its input port is consumed by live code. */
bool
finalizePhase(Compilation &cc, FlatPhase &flat, int phase_idx)
{
    const Dfg &dfg = flat.body;
    std::set<NodeId> live;
    std::set<int> liveInputs;
    for (CarriedValue &cv : flat.carried)
        cv.live = false;

    std::vector<NodeId> work;
    for (const DfgNode &n : dfg.nodes())
        if (n.op == Opcode::Store)
            work.push_back(n.id);
    for (const Observation &ob : cc.observations)
        if (ob.phase == phase_idx)
            work.push_back(ob.node);

    auto markOperand = [&](const Operand &o) {
        if (o.kind == OperandKind::Node &&
            live.insert(o.ref).second)
            work.push_back(o.ref);
        if (o.kind == OperandKind::Input)
            liveInputs.insert(static_cast<int>(o.ref));
    };

    bool changed = true;
    while (changed) {
        changed = false;
        while (!work.empty()) {
            NodeId id = work.back();
            work.pop_back();
            live.insert(id);
            const DfgNode &n = dfg.node(id);
            markOperand(n.a);
            markOperand(n.b);
            markOperand(n.c);
        }
        // A consumed carried input keeps its producer chain alive.
        for (CarriedValue &cv : flat.carried) {
            if (!cv.live && liveInputs.count(cv.inputIdx)) {
                if (cv.finalVal.kind != OperandKind::Node)
                    return cc.fail(kPassLower,
                                   "loop-carried '" + cv.name +
                                       "' is consumed but never "
                                       "updated");
                cv.live = true;
                if (live.insert(cv.finalVal.ref).second) {
                    work.push_back(cv.finalVal.ref);
                    changed = true;
                }
            }
        }
    }

    flat.liveNodes = std::move(live);
    return true;
}

// ------------------------------------------------------------------
// Run-ahead proof for ordering tokens
// ------------------------------------------------------------------

/**
 * The ordering tokens of @p flat, one flag per carried value.  A
 * token is a live carried value whose input reaches no memory
 * operand, observed port or non-token final except through
 * And(·, #0) (a greatest fixpoint over the live carried values): only
 * its arrival matters, never its word.  @p tainted receives, per node
 * id, whether a token's input reaches the node that way.  Such a node
 * is value-free: its word reaches only And(·, #0), other tainted
 * nodes and token finals.
 */
std::vector<char>
orderingTokens(const Compilation &cc, const FlatPhase &flat,
               int phase_idx, std::vector<char> &tainted)
{
    const Dfg &dfg = flat.body;
    const std::size_t nn = static_cast<std::size_t>(dfg.numNodes());
    const std::size_t nc = flat.carried.size();
    std::vector<char> observed(nn, 0);
    for (const Observation &ob : cc.observations)
        if (ob.phase == phase_idx)
            observed[static_cast<std::size_t>(ob.node)] = 1;
    // needs[c] lists the carried values whose final c's input
    // reaches; c stays a token only while they all are.
    std::vector<char> token(nc, 0);
    std::vector<std::vector<std::size_t>> needs(nc);
    std::vector<std::vector<char>> taint(nc, std::vector<char>(nn, 0));
    for (std::size_t c = 0; c < nc; ++c) {
        const CarriedValue &cv = flat.carried[c];
        std::vector<char> &mine = taint[c];
        token[c] = cv.live;
        for (auto it = flat.liveNodes.begin();
             token[c] && it != flat.liveNodes.end(); ++it) {
            const DfgNode &nd = dfg.node(*it);
            bool hit = false;
            for (const Operand *o : {&nd.a, &nd.b, &nd.c})
                hit = hit ||
                      (o->kind == OperandKind::Input &&
                       static_cast<int>(o->ref) == cv.inputIdx) ||
                      (o->kind == OperandKind::Node &&
                       mine[static_cast<std::size_t>(o->ref)]);
            if (!hit || zeroAnd(nd))
                continue;
            mine[static_cast<std::size_t>(*it)] = 1;
            token[c] = !isMemoryOp(nd.op) &&
                       !observed[static_cast<std::size_t>(*it)];
            for (std::size_t i = 0; i < nc; ++i)
                if (i != c && flat.carried[i].live &&
                    flat.carried[i].finalVal.ref == *it)
                    needs[c].push_back(i);
        }
    }
    for (bool changed = true; changed;) {
        changed = false;
        for (std::size_t c = 0; c < nc; ++c)
            for (std::size_t i : needs[c])
                if (token[c] && !token[i]) {
                    token[c] = 0;
                    changed = true;
                }
    }
    tainted.assign(nn, 0);
    for (std::size_t c = 0; c < nc; ++c)
        for (std::size_t k = 0; token[c] && k < nn; ++k)
            tainted[k] = tainted[k] || taint[c][k];
    return token;
}

/**
 * The token-gate fold (after liveness): a value-free
 * Select(p, v, o) becomes v when p and o both lie in v's template
 * cone, or o when p and v lie in o's.  The kept lane fires only after
 * its whole cone has arrived, so everything that waited for the
 * select still waits for p, v and o, and every run-ahead path keeps
 * its weight (template edges weigh 0).  The token's word changes, but
 * nothing reads it.  The live nodes are walked in id order and
 * rewritten as they go, so a chain of gates folds in one pass.
 * Returns how many selects folded; the caller re-runs liveness.
 */
int
foldTokenGates(FlatPhase &flat, const std::vector<char> &tainted)
{
    Dfg &dfg = flat.body;
    std::map<NodeId, Operand> subst;
    auto rewrite = [&](Operand &o) {
        if (o.kind != OperandKind::Node)
            return;
        auto it = subst.find(o.ref);
        if (it != subst.end())
            o = it->second;
    };
    // Whether @p o is @p root or one of its template ancestors
    // (immediates carry no arrival); operands sit below their
    // consumers in id order, so the cone is already rewritten.
    auto inCone = [&](const Operand &o, NodeId root) {
        if ((o.kind != OperandKind::Node && o.kind != OperandKind::Input) ||
            o == Operand::node(root))
            return true;
        std::vector<NodeId> work{root};
        std::set<NodeId> seen{root};
        while (!work.empty()) {
            const DfgNode &nd = dfg.node(work.back());
            work.pop_back();
            for (const Operand *in : {&nd.a, &nd.b, &nd.c}) {
                if (*in == o)
                    return true;
                if (in->kind == OperandKind::Node &&
                    seen.insert(in->ref).second)
                    work.push_back(in->ref);
            }
        }
        return false;
    };
    int folded = 0;
    for (NodeId id : flat.liveNodes) {
        DfgNode &nd = dfg.node(id);
        rewrite(nd.a);
        rewrite(nd.b);
        rewrite(nd.c);
        if (nd.op != Opcode::Select || !tainted[static_cast<std::size_t>(id)])
            continue;
        const Operand p = nd.a, v = nd.b, o = nd.c;
        for (const auto &[kept, other] : {std::pair{v, o}, std::pair{o, v}}) {
            if (kept.kind == OperandKind::Node &&
                inCone(p, kept.ref) && inCone(other, kept.ref)) {
                subst[id] = kept;
                ++folded;
                break;
            }
        }
    }
    for (CarriedValue &cv : flat.carried)
        rewrite(cv.finalVal);
    return folded;
}

/**
 * How far @p flat's ordering tokens (@p token, from orderingTokens)
 * may run ahead, proven from the slot index alone; sets their
 * CarriedValue::slack and returns the lower note (empty when the
 * phase has no token).
 *
 * A token's closing channel may hold S boot words, so its consumers
 * run S slots ahead.  That is sound as long as every same-word pair
 * of memory accesses (X at slot tx, Y at ty > tx, one a store) keeps
 * a dependence path X -> Y weighing at most ty - tx, where each
 * token closing edge weighs S, every other closing edge (self
 * edges included) 1 and every template edge 0: a PE fires its
 * slots in order and memory acts at issue, so a path of weight w
 * makes Y at tx + w, and so at ty, fire after X at tx.
 *
 * Each live memory node's effective word (address + memBase) and
 * predicate are evaluated per slot over their operand cones only;
 * the nearest gap per (X, Y) node pair comes from one slot-order
 * scan of a last-access table.  Pairs ordered without the tokens
 * cannot cap S.  S is the largest value up to kDataChannelDepth - 1
 * that orders every other pair; the tokens keep slack 1 when no
 * S > 1 does, or when an address does not evaluate from the slot
 * index (a predicate that does not is taken as always true).
 */
std::string
proveRunAhead(const Compilation &cc, FlatPhase &flat, int phase_idx,
              const std::vector<char> &token)
{
    const Dfg &dfg = flat.body;
    const std::vector<NodeId> ids(flat.liveNodes.begin(),
                                  flat.liveNodes.end());
    const int n = static_cast<int>(ids.size());
    std::vector<int> at(static_cast<std::size_t>(dfg.numNodes()), -1);
    for (int k = 0; k < n; ++k)
        at[static_cast<std::size_t>(ids[static_cast<std::size_t>(k)])] =
            k;
    auto node = [&](int k) -> const DfgNode & {
        return dfg.node(ids[static_cast<std::size_t>(k)]);
    };
    auto dense = [&](const Operand &o) {
        return o.kind == OperandKind::Node
                   ? at[static_cast<std::size_t>(o.ref)]
                   : -1;
    };
    const std::size_t nc = flat.carried.size();
    std::vector<std::string> names;
    for (std::size_t c = 0; c < nc; ++c)
        if (token[c] && std::find(names.begin(), names.end(),
                                  flat.carried[c].name) == names.end())
            names.push_back(flat.carried[c].name);
    if (names.empty())
        return {};
    std::ostringstream note;
    note << "phase '" << cc.top.phases[static_cast<std::size_t>(
                                           phase_idx)]
                             .headerName
         << "': ordering token(s)";
    for (std::size_t i = 0; i < names.size(); ++i)
        note << (i == 0 ? " '" : ", '") << names[i] << "'";

    // ---- Address and predicate cones, evaluated from the slot.
    std::vector<char> opaque(static_cast<std::size_t>(n), 0);
    auto opaqueOperand = [&](const Operand &o) {
        return (o.kind == OperandKind::Input && o.ref != 0) ||
               (dense(o) >= 0 &&
                opaque[static_cast<std::size_t>(dense(o))]);
    };
    for (int k = 0; k < n; ++k) {
        const DfgNode &nd = node(k);
        opaque[static_cast<std::size_t>(k)] =
            !zeroAnd(nd) &&
            (isMemoryOp(nd.op) || isControlOp(nd.op) ||
             nd.op == Opcode::Phi || opaqueOperand(nd.a) ||
             opaqueOperand(nd.b) || opaqueOperand(nd.c));
    }
    // Every evaluated value is a column of kBlock slots in cols: the
    // cone's nodes first, then the slot index, then one column per
    // immediate.
    constexpr int kBlock = 64;
    struct Access
    {
        int addr;
        int pred; ///< -1: always true.
        bool store;
        Word base;
    };
    std::vector<int> mems; // dense ids of the memory nodes.
    std::vector<Access> access;
    std::vector<char> inCone(static_cast<std::size_t>(n), 0);
    auto need = [&](const Operand &o) {
        if (dense(o) >= 0)
            inCone[static_cast<std::size_t>(dense(o))] = 1;
    };
    for (int k = 0; k < n; ++k) {
        const DfgNode &nd = node(k);
        if (!isMemoryOp(nd.op))
            continue;
        const bool store = nd.op == Opcode::Store;
        if (opaqueOperand(nd.a)) {
            note << " keep slack 1: the address of "
                 << (store ? "store" : "load") << " '" << nd.name
                 << "' does not evaluate from the slot index";
            return note.str();
        }
        // An absent predicate is always true, as is (taken here) one
        // that does not evaluate.
        const Operand &pred = store ? nd.c : nd.b;
        const bool known =
            pred.kind != OperandKind::None && !opaqueOperand(pred);
        need(nd.a);
        if (known)
            need(pred);
        mems.push_back(k);
        auto base = flat.memBase.find(ids[static_cast<std::size_t>(k)]);
        access.push_back({0, known ? 0 : -1, store,
                          base == flat.memBase.end() ? 0
                                                     : base->second});
    }
    for (int k = n - 1; k >= 0; --k)
        if (inCone[static_cast<std::size_t>(k)] && !zeroAnd(node(k)))
            for (const Operand *o : {&node(k).a, &node(k).b, &node(k).c})
                need(*o);
    std::vector<int> cone;
    std::vector<int> column(static_cast<std::size_t>(n), -1);
    for (int k = 0; k < n; ++k)
        if (inCone[static_cast<std::size_t>(k)] && !zeroAnd(node(k))) {
            column[static_cast<std::size_t>(k)] =
                static_cast<int>(cone.size());
            cone.push_back(k);
        }
    const int slotColumn = static_cast<int>(cone.size());
    std::vector<Word> immediates;
    auto source = [&](const Operand &o) {
        if (o.kind == OperandKind::Input)
            return slotColumn;
        if (o.kind == OperandKind::Node &&
            column[static_cast<std::size_t>(dense(o))] >= 0)
            return column[static_cast<std::size_t>(dense(o))];
        // An immediate; absent operands and And(·, #0) read 0.
        const Word v = o.kind == OperandKind::Immediate ? o.ref : 0;
        auto it = std::find(immediates.begin(), immediates.end(), v);
        if (it == immediates.end())
            it = immediates.insert(immediates.end(), v);
        return slotColumn + 1 +
               static_cast<int>(it - immediates.begin());
    };
    std::vector<std::array<int, 3>> coneSrc;
    for (int k : cone)
        coneSrc.push_back(
            {source(node(k).a), source(node(k).b), source(node(k).c)});
    for (std::size_t m = 0; m < mems.size(); ++m) {
        const DfgNode &nd = node(mems[m]);
        access[m].addr = source(nd.a);
        if (access[m].pred >= 0)
            access[m].pred =
                source(nd.op == Opcode::Store ? nd.c : nd.b);
    }
    std::vector<Word> cols((cone.size() + 1 + immediates.size()) *
                           kBlock);
    auto col = [&](int c) {
        return cols.data() + static_cast<std::size_t>(c) * kBlock;
    };
    for (std::size_t i = 0; i < immediates.size(); ++i)
        std::fill_n(col(slotColumn + 1 + static_cast<int>(i)), kBlock,
                    immediates[i]);

    // words[t * nm + m]: the scratchpad word memory node m touches
    // at slot t, or -1 (masked off, or outside the scratchpad).
    const int nm = static_cast<int>(mems.size());
    const std::size_t accesses =
        static_cast<std::size_t>(flat.trips) * static_cast<std::size_t>(nm);
    if (accesses > (std::size_t{1} << 22)) {
        note << " keep slack 1: their phase makes " << accesses
             << " slot accesses, too many to pair up";
        return note.str();
    }
    std::vector<Word> words(accesses);
    const Word numWords = cc.config.scratchpadBytes / 4;
    Word lo = numWords, hi = -1;
    for (Word t0 = 0; t0 < flat.trips; t0 += kBlock) {
        const int len =
            static_cast<int>(std::min<Word>(kBlock, flat.trips - t0));
        for (int j = 0; j < len; ++j)
            col(slotColumn)[j] = t0 + j;
        // Through evalOp, the machine's own semantics, so the proof
        // sees the words the machine will.
        for (std::size_t c = 0; c < cone.size(); ++c) {
            const Opcode op = node(cone[c]).op;
            const Word *x = col(coneSrc[c][0]);
            const Word *y = col(coneSrc[c][1]);
            const Word *z = col(coneSrc[c][2]);
            Word *out = col(static_cast<int>(c));
            for (int j = 0; j < len; ++j)
                out[j] = evalOp(op, x[j], y[j], z[j]);
        }
        Word *out = words.data() + static_cast<std::size_t>(t0) * nm;
        for (int j = 0; j < len; ++j)
            for (int m = 0; m < nm; ++m, ++out) {
                const Access &a = access[static_cast<std::size_t>(m)];
                const Word word = static_cast<Word>(
                    static_cast<UWord>(col(a.addr)[j]) +
                    static_cast<UWord>(a.base));
                const bool on = a.pred < 0 || col(a.pred)[j] != 0;
                *out = on && word >= 0 && word < numWords ? word : -1;
                if (*out >= 0) {
                    lo = std::min(lo, word);
                    hi = std::max(hi, word);
                }
            }
    }

    // ---- Nearest same-word gap per (earlier, later) node pair, from
    // one slot-order scan of each word's last access per node.
    constexpr Word kNoGap = std::numeric_limits<Word>::max();
    std::vector<Word> gap(static_cast<std::size_t>(nm) * nm, kNoGap);
    if (hi >= lo) {
        const std::size_t span = static_cast<std::size_t>(hi - lo) + 1;
        if (span * static_cast<std::size_t>(nm) > (std::size_t{1} << 18)) {
            note << " keep slack 1: their phase touches " << span
                 << " words, too many to pair up";
            return note.str();
        }
        std::vector<Word> last(span * static_cast<std::size_t>(nm), -1);
        auto row = [&](Word word) {
            return last.data() + static_cast<std::size_t>(word - lo) * nm;
        };
        // Slot t's accesses all read the table before any of them
        // writes it, so each meets only earlier slots' accesses.
        for (Word t = 0; t < flat.trips; ++t) {
            const Word *w =
                words.data() + static_cast<std::size_t>(t) * nm;
            for (int y = 0; y < nm; ++y) {
                if (w[y] < 0)
                    continue;
                const Word *r = row(w[y]);
                const bool store =
                    access[static_cast<std::size_t>(y)].store;
                for (int x = 0; x < nm; ++x) {
                    if (x == y || r[x] < 0 ||
                        !(store ||
                          access[static_cast<std::size_t>(x)].store))
                        continue;
                    Word &g = gap[static_cast<std::size_t>(x) * nm +
                                  static_cast<std::size_t>(y)];
                    g = std::min(g, t - r[x]);
                }
            }
            for (int y = 0; y < nm; ++y)
                if (w[y] >= 0)
                    row(w[y])[y] = t;
        }
    }

    // ---- Dependence-path weights between the memory nodes.
    struct Closing
    {
        int from;
        int to;
        bool token; ///< a token's non-self edge: weighs the slack.
    };
    std::vector<Closing> closing;
    for (std::size_t c = 0; c < nc; ++c) {
        const CarriedValue &cv = flat.carried[c];
        if (!cv.live)
            continue;
        const int fin = dense(cv.finalVal);
        for (int k = 0; k < n; ++k)
            for (const Operand *o : {&node(k).a, &node(k).b, &node(k).c})
                if (o->kind == OperandKind::Input &&
                    static_cast<int>(o->ref) == cv.inputIdx)
                    closing.push_back({fin, k, token[c] && k != fin});
    }
    // Template in-edges: three operand slots per node, -1 if none.
    std::vector<int> operands(3 * static_cast<std::size_t>(n));
    for (int k = 0; k < n; ++k) {
        operands[3 * static_cast<std::size_t>(k)] = dense(node(k).a);
        operands[3 * static_cast<std::size_t>(k) + 1] = dense(node(k).b);
        operands[3 * static_cast<std::size_t>(k) + 2] = dense(node(k).c);
    }
    constexpr Word kFar = std::numeric_limits<Word>::max() / 2;
    std::vector<Word> dist(static_cast<std::size_t>(n));
    // Lightest path weights from memory node x, token edges at
    // @p slack (0: without them).  Template edges ascend, so one
    // sweep settles every zero-weight path; each further round
    // crosses one more closing edge.
    auto paths = [&](int x, Word slack) {
        std::fill(dist.begin(), dist.end(), kFar);
        dist[static_cast<std::size_t>(mems[static_cast<std::size_t>(x)])] =
            0;
        for (bool changed = true; changed;) {
            const int *in = operands.data();
            for (Word &d : dist)
                for (int s = 0; s < 3; ++s, ++in)
                    if (*in >= 0)
                        d = std::min(d,
                                     dist[static_cast<std::size_t>(*in)]);
            changed = false;
            for (const Closing &e : closing) {
                if (e.token && slack == 0)
                    continue;
                const Word via = dist[static_cast<std::size_t>(e.from)] +
                                 (e.token ? slack : 1);
                if (via < dist[static_cast<std::size_t>(e.to)]) {
                    dist[static_cast<std::size_t>(e.to)] = via;
                    changed = true;
                }
            }
        }
    };
    // The pairs only the tokens order: (x, y, gap).
    std::vector<std::array<Word, 3>> pairs;
    Word nearest = kNoGap;
    for (int x = 0; x < nm; ++x) {
        bool any = false;
        for (int y = 0; y < nm; ++y)
            any = any || gap[static_cast<std::size_t>(x) * nm +
                             static_cast<std::size_t>(y)] != kNoGap;
        if (!any)
            continue;
        paths(x, 0);
        for (int y = 0; y < nm; ++y) {
            const Word g = gap[static_cast<std::size_t>(x) * nm +
                               static_cast<std::size_t>(y)];
            if (g != kNoGap &&
                dist[static_cast<std::size_t>(
                    mems[static_cast<std::size_t>(y)])] > g) {
                pairs.push_back({x, y, g});
                nearest = std::min(nearest, g);
            }
        }
    }
    Word slack = kDataChannelDepth - 1;
    for (; slack > 1; --slack) {
        bool ordered = true;
        int source = -1;
        for (std::size_t i = 0; ordered && i < pairs.size(); ++i) {
            const std::array<Word, 3> &p = pairs[i];
            if (p[0] != source) {
                source = p[0];
                paths(source, slack);
            }
            ordered = dist[static_cast<std::size_t>(
                          mems[static_cast<std::size_t>(p[1])])] <= p[2];
        }
        if (ordered)
            break;
    }
    for (std::size_t c = 0; c < nc; ++c)
        if (token[c])
            flat.carried[c].slack = slack;
    note << " run " << slack << " slot(s) ahead; nearest same-word "
         << "pair they order: ";
    if (nearest == kNoGap)
        note << "none";
    else
        note << nearest << " slot(s) apart";
    return note.str();
}

/** The bound phase region rewritten to replica @p r's stripe:
 *  iterations r, r+F, r+2F, ... of the striped header. */
Region
stripedClone(const Region &phase, int r, int factor)
{
    Region clone = phase;
    clone.start =
        phase.start + static_cast<Word>(r) * phase.step;
    clone.step = phase.step * factor;
    clone.trips = phase.trips / factor;
    clone.span = phase.span / factor;
    return clone;
}

/** Lower every phase at the given factors (1 = plain). */
bool
lowerAllPhases(Compilation &cc, const std::vector<int> &factors)
{
    cc.phases.assign(cc.top.phases.size(), FlatPhase{});
    for (std::size_t p = 0; p < cc.top.phases.size(); ++p) {
        const Region &src = cc.top.phases[p];
        FlatPhase &flat = cc.phases[p];
        const int factor = factors[p];
        BodyBuilder bb;
        if (factor <= 1) {
            PhaseLowering lowering(cc, src, flat, bb, 0);
            if (!lowering.runImpl())
                return false;
            flat.replicaEnvs.clear();
        } else {
            flat.unrollFactor = factor;
            flat.stripeSpan =
                std::max<Word>(1, src.span / src.trips);
            for (int r = 0; r < factor; ++r) {
                Region clone = stripedClone(src, r, factor);
                PhaseLowering lowering(cc, clone, flat, bb, r);
                if (!lowering.runImpl())
                    return false;
            }
        }
        flat.body = std::move(bb.dfg());
        flat.signSelectsAbsorbed = bb.signSelectsAbsorbed();
        flat.clampSelectsFolded = bb.clampSelectsFolded();
    }
    return true;
}

/**
 * Resolve observation ports and build the golden streams the emit
 * pass hands the kernel.  A port produced by an unrolled phase
 * splits into one observation per replica (consecutive FIFOs); its
 * golden value trace is de-interleaved to match — replica r's v-th
 * firing is source slot ((v / Si)*F + r)*Si + v%Si of the original
 * stream (Si = the striped loop's body span).  When a golden
 * stream is not one-word-per-slot the split is impossible; the
 * phase falls back to factor 1 (@p retryFactors signals the
 * caller to re-lower).
 */
bool
resolveObservations(Compilation &cc, std::vector<int> &factors,
                    bool &retry)
{
    cc.observations.clear();
    cc.goldenOutputs.clear();
    int fifo = 0;
    static const std::vector<Word> kNoGolden;
    for (std::size_t k = 0; k < cc.spec.observePorts.size(); ++k) {
        const std::string &port = cc.spec.observePorts[k];
        int found = -1;
        Operand op;
        for (std::size_t p = 0; p < cc.phases.size(); ++p) {
            auto it = cc.phases[p].finalEnv.find(port);
            if (it == cc.phases[p].finalEnv.end())
                continue;
            if (found >= 0)
                return cc.fail(kPassLower,
                               "observed port '" + port +
                                   "' is ambiguous across phases");
            found = static_cast<int>(p);
            op = it->second;
        }
        if (found < 0)
            return cc.fail(kPassLower, "observed port '" + port +
                                           "' is never produced");
        if (op.kind != OperandKind::Node)
            return cc.fail(kPassLower,
                           "observed port '" + port +
                               "' folds to a constant");

        FlatPhase &flat = cc.phases[static_cast<std::size_t>(found)];
        const std::vector<Word> &golden =
            k < cc.spec.expectedOutputs.size()
                ? cc.spec.expectedOutputs[k]
                : kNoGolden;
        if (flat.unrollFactor <= 1) {
            Observation ob;
            ob.fifo = fifo++;
            ob.phase = found;
            ob.node = op.ref;
            cc.observations.push_back(ob);
            cc.goldenOutputs.push_back(golden);
            continue;
        }

        const int F = flat.unrollFactor;
        const Word Si = flat.stripeSpan;
        if (golden.size() !=
            static_cast<std::size_t>(flat.trips) *
                static_cast<std::size_t>(F)) {
            factors[static_cast<std::size_t>(found)] = 1;
            retry = true;
            cc.report.note(
                kPassLower,
                "phase '" +
                    cc.top.phases[static_cast<std::size_t>(found)]
                        .headerName +
                    "': golden stream of observed port '" + port +
                    "' is not one word per slot; replication "
                    "disabled");
            return true;
        }
        for (int r = 0; r < F; ++r) {
            auto it = flat.replicaEnvs[static_cast<std::size_t>(r)]
                          .find(port);
            if (it == flat.replicaEnvs[static_cast<std::size_t>(r)]
                          .end() ||
                it->second.kind != OperandKind::Node)
                return cc.fail(kPassLower,
                               "observed port '" + port +
                                   "' is missing from replica " +
                                   std::to_string(r));
            Observation ob;
            ob.fifo = fifo++;
            ob.phase = found;
            ob.node = it->second.ref;
            cc.observations.push_back(ob);
            std::vector<Word> stream(
                static_cast<std::size_t>(flat.trips));
            for (Word v = 0; v < flat.trips; ++v)
                stream[static_cast<std::size_t>(v)] =
                    golden[static_cast<std::size_t>(
                        ((v / Si) * F + r) * Si + v % Si)];
            cc.goldenOutputs.push_back(std::move(stream));
        }
    }
    return true;
}

/** Next smaller divisor of @p trips below @p factor (>= 1). */
int
nextSmallerDivisor(Word trips, int factor)
{
    for (int f = factor - 1; f > 1; --f)
        if (trips % f == 0)
            return f;
    return 1;
}

} // namespace

// ------------------------------------------------------------------
// Pass 6: lower
// ------------------------------------------------------------------

bool
passLower(Compilation &cc)
{
    std::vector<int> factors(cc.top.phases.size(), 1);
    for (std::size_t p = 0;
         p < cc.unroll.size() && p < factors.size(); ++p)
        factors[p] = std::max(1, cc.unroll[p].factor);

    // The refinement below shrinks replication factors until the
    // replicated bodies fit the alive-PE pool the place pass will
    // check against, so a fault plan's dead PEs can legitimately
    // lower the factor of a recompile.
    for (;;) {
        if (!lowerAllPhases(cc, factors))
            return false;
        bool retry = false;
        if (!resolveObservations(cc, factors, retry))
            return false;
        if (retry)
            continue;
        bool ok = true;
        for (std::size_t p = 0; p < cc.phases.size(); ++p)
            ok = ok && finalizePhase(cc, cc.phases[p],
                                     static_cast<int>(p));
        if (!ok)
            return false;

        int unrolled = -1;
        for (std::size_t p = 0; p < cc.phases.size(); ++p)
            if (factors[p] > 1)
                unrolled = static_cast<int>(p);
        if (unrolled < 0 || peBudget(cc).fits())
            break;

        // Shrink the largest replication factor to the next
        // divisor and re-lower.
        std::size_t worst = static_cast<std::size_t>(unrolled);
        for (std::size_t p = 0; p < factors.size(); ++p)
            if (factors[p] > factors[worst])
                worst = p;
        const Word orig_trips = cc.top.phases[worst].trips;
        factors[worst] =
            nextSmallerDivisor(orig_trips, factors[worst]);
    }

    for (std::size_t p = 0; p < cc.phases.size(); ++p) {
        FlatPhase &flat = cc.phases[p];
        const int phase = static_cast<int>(p);
        if (p < cc.unroll.size())
            cc.unroll[p].factor = factors[p];
        std::vector<char> tainted;
        const std::vector<char> token =
            orderingTokens(cc, flat, phase, tainted);
        const int gates = foldTokenGates(flat, tainted);
        if (gates > 0 && !finalizePhase(cc, flat, phase))
            return false;
        const std::string prefix =
            "phase '" + cc.top.phases[p].headerName + "': ";
        std::ostringstream note;
        int carried_live = 0;
        for (const CarriedValue &cv : flat.carried)
            carried_live += cv.live ? 1 : 0;
        note << prefix << flat.trips << " flat iterations, "
             << flat.liveNodes.size() << " operators, " << carried_live
             << " loop-carried value(s)";
        if (flat.unrollFactor > 1)
            note << ", replicated x" << flat.unrollFactor << " (stripe "
                 << flat.stripeSpan << " slot(s)/iteration)";
        cc.report.note(kPassLower, note.str());
        auto rewrites = [&](int count, const char *what) {
            if (count > 0)
                cc.report.note(kPassLower, prefix + std::to_string(count) +
                                               " " + what);
        };
        rewrites(flat.signSelectsAbsorbed,
                 "sign select(s) absorbed into a Sub/Add pair");
        rewrites(flat.clampSelectsFolded,
                 "clamp select(s) folded into their Min/Max");
        rewrites(gates, "token-gate select(s) folded into the lane that "
                        "waits for the others");
        const std::string run_ahead =
            proveRunAhead(cc, flat, phase, token);
        if (!run_ahead.empty())
            cc.report.note(kPassLower, run_ahead);
    }
    return true;
}

} // namespace marionette

/**
 * @file
 * Viterbi decoding (VI) — 64 states, 140 observations, 64 tokens.
 *
 * MachSuite-style dynamic program: for each observation and each
 * state, the innermost loop scans predecessor states and keeps the
 * minimum path metric — an innermost branch executed
 * 140 x 64 x 64 times.  Table 1: innermost branch, imperfect
 * nested loops.
 */

#include <vector>

#include "ir/builder.h"
#include "sim/rng.h"
#include "workloads/kernels.h"

namespace marionette
{

namespace
{

constexpr int kStates = 64;
constexpr int kObs = 140;
constexpr int kTokens = 64;

enum Block : BlockId
{
    bInit = 0,
    bObsLoop,    // observations (depth 1)
    bStateLoop,  // destination states (depth 2)
    bSeed,       // best = +inf seed (imperfect work at depth 2)
    bPrevLoop,   // predecessor states (depth 3)
    bScore,      // metric = path[prev] + trans + emit
    bMinIf,      // if (metric < best)
    bMinUpd,     // best = metric, arg = prev
    bMinSkip,
    bPrevLatch,
    bStore,      // path'[state] = best (depth 2)
    bStateLatch,
    bObsLatch,
    bBackLoop,   // backtrace (depth 1)
    bBackBody,
    bDone
};

/** Inputs and forward-recursion results of one Viterbi run. */
struct ViterbiRun
{
    std::vector<Word> trans; ///< kStates x kStates costs.
    std::vector<Word> emit;  ///< kStates x kTokens costs.
    std::vector<Word> obs;   ///< kObs observed tokens.
    /** Path metrics, ping-ponging between two halves of kStates by
     *  observation parity; the last observation's metrics sit in
     *  half (nObs & 1). */
    std::vector<Word> path;
    std::vector<Word> bp; ///< nObs x kStates backpointers.
};

/** Draws the inputs (all kObs observations, whatever @p n_obs) and
 *  runs the forward recursion over the first @p n_obs of them,
 *  observing port 0 ("best") after every predecessor scanned.  The
 *  backtrace is the caller's. */
template <class Recorder>
ViterbiRun
viterbiForward(Recorder &rec, int n_obs)
{
    ViterbiRun r;
    Rng rng(0x5eed0003);
    r.trans.resize(static_cast<std::size_t>(kStates * kStates));
    r.emit.resize(static_cast<std::size_t>(kStates * kTokens));
    r.obs.resize(static_cast<std::size_t>(kObs));
    for (Word &v : r.trans)
        v = static_cast<Word>(rng.nextRange(1, 100));
    for (Word &v : r.emit)
        v = static_cast<Word>(rng.nextRange(1, 100));
    for (Word &o : r.obs)
        o = static_cast<Word>(rng.nextBounded(kTokens));
    r.path.assign(static_cast<std::size_t>(2 * kStates), 0);
    r.bp.assign(static_cast<std::size_t>(n_obs * kStates), 0);

    rec.block(bInit);
    rec.round(bObsLoop);
    for (int t = 0; t < n_obs; ++t) {
        rec.iteration(bObsLoop);
        const Word *cur = r.path.data() + (t & 1) * kStates;
        Word *nxt = r.path.data() + ((t + 1) & 1) * kStates;
        rec.round(bStateLoop);
        for (int s = 0; s < kStates; ++s) {
            rec.iteration(bStateLoop);
            rec.block(bSeed);
            Word best = 0x7fffffff;
            Word arg = 0;
            rec.round(bPrevLoop);
            for (int p = 0; p < kStates; ++p) {
                rec.iteration(bPrevLoop);
                rec.block(bScore);
                Word metric =
                    cur[p] + r.trans[static_cast<std::size_t>(
                                 p * kStates + s)] +
                    r.emit[static_cast<std::size_t>(
                        s * kTokens +
                        r.obs[static_cast<std::size_t>(t)])];
                rec.block(bMinIf);
                if (metric < best) {
                    rec.block(bMinUpd);
                    best = metric;
                    arg = p;
                } else {
                    rec.block(bMinSkip);
                }
                rec.observe(0, best);
                rec.block(bPrevLatch);
            }
            rec.block(bStore);
            nxt[s] = best;
            r.bp[static_cast<std::size_t>(t * kStates + s)] = arg;
            rec.block(bStateLatch);
        }
        rec.block(bObsLatch);
    }
    return r;
}

class ViterbiWorkload : public Workload
{
  public:
    std::string name() const override { return "VI"; }
    std::string fullName() const override { return "Viterbi"; }
    std::string
    sizeDesc() const override
    {
        return "64 stages; 140 obs; 64 tokens";
    }

    Cdfg
    buildCdfg() const override
    {
        CdfgBuilder b("viterbi");
        BlockId init = b.addBlock("init");
        BlockId obs = b.addLoopHeader("obs_loop");
        BlockId state = b.addLoopHeader("state_loop");
        BlockId seed = b.addBlock("seed");
        BlockId prev = b.addLoopHeader("prev_loop");
        BlockId score = b.addBlock("score");
        BlockId minif = b.addBranchBlock("min_if");
        BlockId minupd = b.addBlock("min_upd");
        BlockId minskip = b.addBlock("min_skip");
        BlockId platch = b.addBlock("prev_latch");
        BlockId store = b.addBlock("store");
        BlockId slatch = b.addBlock("state_latch");
        BlockId olatch = b.addBlock("obs_latch");
        BlockId back = b.addLoopHeader("back_loop");
        BlockId backb = b.addBlock("back_body");
        BlockId done = b.addBlock("done");

        auto copyBlock = [&](BlockId id) {
            Dfg &d = b.dfg(id);
            int x = d.addInput("x");
            NodeId c = d.addNode(Opcode::Copy, Operand::input(x));
            d.addOutput("x", c);
        };

        {
            Dfg &d = b.dfg(init);
            NodeId c = d.addNode(Opcode::Const, Operand::imm(0));
            d.addOutput("t", c);
        }
        for (BlockId hdr : {obs, state, prev, back}) {
            Dfg &d = b.dfg(hdr);
            dfg_patterns::addCountedLoop(d, 0, 1, "bound");
        }
        {   // seed best metric (and its arg-min companion).
            Dfg &d = b.dfg(seed);
            NodeId inf = d.addNode(Opcode::Const,
                                   Operand::imm(0x7fffffff));
            NodeId zero = d.addNode(Opcode::Const,
                                    Operand::imm(0));
            d.addOutput("best", inf);
            d.addOutput("arg", zero);
        }
        {   // metric = path[prev] + trans[prev][s] + emit[s][obs];
            // the path metrics ping-pong between two halves of the
            // path array by observation parity.
            Dfg &d = b.dfg(score);
            int p = d.addInput("prev");
            int s = d.addInput("state");
            int t = d.addInput("t");
            NodeId par = d.addNode(Opcode::And, Operand::input(t),
                                   Operand::imm(1));
            NodeId pp = d.addNode(Opcode::Shl, Operand::node(par),
                                  Operand::imm(6), Operand::none(),
                                  "ping");
            NodeId pa = d.addNode(Opcode::Add, Operand::node(pp),
                                  Operand::input(p));
            NodeId pm = d.addNode(Opcode::Load, Operand::node(pa),
                                  Operand::none(), Operand::none(),
                                  "path");
            NodeId ti = d.addNode(Opcode::Shl, Operand::input(p),
                                  Operand::imm(6));
            NodeId ti2 = d.addNode(Opcode::Add, Operand::node(ti),
                                   Operand::input(s));
            NodeId tr = d.addNode(Opcode::Load, Operand::node(ti2),
                                  Operand::none(), Operand::none(),
                                  "trans");
            NodeId ob = d.addNode(Opcode::Load, Operand::input(t),
                                  Operand::none(), Operand::none(),
                                  "obs");
            NodeId ei = d.addNode(Opcode::Shl, Operand::input(s),
                                  Operand::imm(6));
            NodeId ei2 = d.addNode(Opcode::Add, Operand::node(ei),
                                   Operand::node(ob));
            NodeId em = d.addNode(Opcode::Load, Operand::node(ei2),
                                  Operand::none(), Operand::none(),
                                  "emit");
            NodeId m1 = d.addNode(Opcode::Add, Operand::node(pm),
                                  Operand::node(tr));
            NodeId m2 = d.addNode(Opcode::Add, Operand::node(m1),
                                  Operand::node(em), Operand::none(),
                                  "metric");
            d.addOutput("metric", m2);
        }
        {
            Dfg &d = b.dfg(minif);
            int m = d.addInput("metric");
            int best = d.addInput("best");
            int arg = d.addInput("arg");
            NodeId lt = d.addNode(Opcode::CmpLt, Operand::input(m),
                                  Operand::input(best));
            d.addNode(Opcode::Branch, Operand::node(lt));
            NodeId ac = d.addNode(Opcode::Copy,
                                  Operand::input(arg));
            d.addOutput("lt", lt);
            d.addOutput("arg", ac);
        }
        {
            Dfg &d = b.dfg(minupd);
            int m = d.addInput("metric");
            int p = d.addInput("prev");
            NodeId nb = d.addNode(Opcode::Copy, Operand::input(m),
                                  Operand::none(), Operand::none(),
                                  "best'");
            NodeId na = d.addNode(Opcode::Copy, Operand::input(p),
                                  Operand::none(), Operand::none(),
                                  "arg'");
            d.addOutput("best", nb);
            d.addOutput("arg", na);
        }
        copyBlock(minskip);
        copyBlock(platch);
        {   // store new path metric (other ping-pong half) and the
            // backpointer bp[t][state].
            Dfg &d = b.dfg(store);
            int s = d.addInput("state");
            int best = d.addInput("best");
            int arg = d.addInput("arg");
            int t = d.addInput("t");
            NodeId t1 = d.addNode(Opcode::Add, Operand::input(t),
                                  Operand::imm(1));
            NodeId par = d.addNode(Opcode::And, Operand::node(t1),
                                   Operand::imm(1));
            NodeId np = d.addNode(Opcode::Shl, Operand::node(par),
                                  Operand::imm(6));
            NodeId na = d.addNode(Opcode::Add, Operand::node(np),
                                  Operand::input(s));
            d.addNode(Opcode::Store, Operand::node(na),
                      Operand::input(best), Operand::none(),
                      "path");
            NodeId bi = d.addNode(Opcode::Shl, Operand::input(t),
                                  Operand::imm(6));
            NodeId ba = d.addNode(Opcode::Add, Operand::node(bi),
                                  Operand::input(s));
            d.addNode(Opcode::Store, Operand::node(ba),
                      Operand::input(arg), Operand::none(), "bp");
            NodeId c = d.addNode(Opcode::Copy, Operand::input(s));
            d.addOutput("x", c);
        }
        copyBlock(slatch);
        copyBlock(olatch);
        {   // backtrace body: walk bp from the last observation,
            // folding the visited states into a checksum stream.
            Dfg &d = b.dfg(backb);
            int j = d.addInput("j");
            int last = d.addInput("lastT");
            int s = d.addInput("bstate");
            int sum = d.addInput("bsum");
            NodeId tt = d.addNode(Opcode::Sub, Operand::input(last),
                                  Operand::input(j));
            NodeId bi = d.addNode(Opcode::Shl, Operand::node(tt),
                                  Operand::imm(6));
            NodeId ba = d.addNode(Opcode::Add, Operand::node(bi),
                                  Operand::input(s));
            NodeId bp = d.addNode(Opcode::Load, Operand::node(ba),
                                  Operand::none(), Operand::none(),
                                  "bp");
            d.addNode(Opcode::Store, Operand::input(j),
                      Operand::node(bp), Operand::none(), "trace");
            NodeId m31 = d.addNode(Opcode::Mul, Operand::input(sum),
                                   Operand::imm(31));
            NodeId ns = d.addNode(Opcode::Add, Operand::node(m31),
                                  Operand::node(bp));
            d.addOutput("bstate", bp);
            d.addOutput("bsum", ns);
        }
        copyBlock(done);

        b.fall(init, obs);
        b.fall(obs, state);
        b.fall(state, seed);
        b.fall(seed, prev);
        b.fall(prev, score);
        b.fall(score, minif);
        b.branch(minif, minupd, minskip);
        b.fall(minupd, platch);
        b.fall(minskip, platch);
        b.loopBack(platch, prev);
        b.loopExit(prev, store);
        b.fall(store, slatch);
        b.loopBack(slatch, state);
        b.loopExit(state, olatch);
        b.loopBack(olatch, obs);
        b.loopExit(obs, back);
        b.fall(back, backb);
        b.loopBack(backb, back);
        b.loopExit(back, done);
        return b.finish();
    }

    WorkloadMachineSpec
    machineSpec() const override
    {
        // Machine-run data at a reduced observation count (the
        // trace keeps the full Table-5 size); states and tokens
        // match the paper.
        constexpr int mObs = 32;
        constexpr Word base_path = 0;                      // 2 x 64
        constexpr Word base_obs = 128;                     // mObs
        constexpr Word base_trans = base_obs + mObs;       // 64 x 64
        constexpr Word base_emit = base_trans + 64 * 64;   // 64 x 64
        constexpr Word base_bp = base_emit + 64 * 64;      // mObs x 64
        constexpr Word base_trace = base_bp + mObs * 64;   // mObs

        WorkloadMachineSpec spec;
        spec.available = true;
        spec.loopBounds["obs_loop"] = {0, mObs, 1};
        spec.loopBounds["state_loop"] = {0, kStates, 1};
        spec.loopBounds["prev_loop"] = {0, kStates, 1};
        spec.loopBounds["back_loop"] = {0, mObs, 1};
        spec.inductionPorts["obs_loop"] = "t";
        spec.inductionPorts["state_loop"] = "state";
        spec.inductionPorts["prev_loop"] = "prev";
        spec.inductionPorts["back_loop"] = "j";
        spec.arrayBases["path"] = base_path;
        spec.arrayBases["obs"] = base_obs;
        spec.arrayBases["trans"] = base_trans;
        spec.arrayBases["emit"] = base_emit;
        spec.arrayBases["bp"] = base_bp;
        spec.arrayBases["trace"] = base_trace;
        spec.scalars["lastT"] = mObs - 1;
        spec.scalars["bstate"] = 0;
        spec.scalars["bsum"] = 0;

        StreamRecorder rec(
            {static_cast<std::size_t>(mObs) * kStates * kStates,
             static_cast<std::size_t>(mObs)});
        ViterbiRun r = viterbiForward(rec, mObs);
        // path starts zeroed; bp and trace lie past the image.
        spec.memoryImage.assign(static_cast<std::size_t>(base_obs),
                                0);
        spec.memoryImage.insert(spec.memoryImage.end(),
                                r.obs.begin(), r.obs.begin() + mObs);
        spec.memoryImage.insert(spec.memoryImage.end(),
                                r.trans.begin(), r.trans.end());
        spec.memoryImage.insert(spec.memoryImage.end(),
                                r.emit.begin(), r.emit.end());

        // The machine's backtrace: from state 0 (the "bstate"
        // seed), folding the visited states into port 1 ("bsum").
        std::vector<Word> trace(static_cast<std::size_t>(mObs));
        Word bstate = 0, bsum = 0;
        for (int j = 0; j < mObs; ++j) {
            int tt = mObs - 1 - j;
            bstate = r.bp[static_cast<std::size_t>(tt * kStates +
                                                   bstate)];
            trace[static_cast<std::size_t>(j)] = bstate;
            bsum = static_cast<Word>(static_cast<UWord>(bsum) * 31u +
                                     static_cast<UWord>(bstate));
            rec.observe(1, bsum);
        }

        spec.observePorts = {"best", "bsum"};
        spec.expectedOutputs = rec.take();
        spec.expectedMemory = {
            {"path", base_path, std::move(r.path)},
            {"bp", base_bp, std::move(r.bp)},
            {"trace", base_trace, std::move(trace)}};
        return spec;
    }

    std::uint64_t
    runGolden(KernelRecorder &rec) const override
    {
        ViterbiRun r = viterbiForward(rec, kObs);
        // Backtrace from the best final state.
        const Word *last = r.path.data() + (kObs & 1) * kStates;
        int state = 0;
        for (int s = 1; s < kStates; ++s)
            if (last[s] < last[state])
                state = s;
        std::uint64_t sum =
            static_cast<std::uint64_t>(static_cast<UWord>(last[state]));
        rec.round(bBackLoop);
        for (int t = kObs - 1; t >= 0; --t) {
            rec.iteration(bBackLoop);
            rec.block(bBackBody);
            state = r.bp[static_cast<std::size_t>(t * kStates + state)];
            sum = sum * 31 + static_cast<std::uint64_t>(state);
        }
        rec.block(bDone);
        return sum;
    }
};

} // namespace

const Workload &
viterbiWorkload()
{
    static ViterbiWorkload instance;
    return instance;
}

} // namespace marionette

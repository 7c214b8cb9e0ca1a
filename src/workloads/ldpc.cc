/**
 * @file
 * LDPC decoding (LDPC) — 20 iterations, 128-bit code
 * (Richardson & Urbanke-style min-sum).
 *
 * Regular (3,6) code: 64 checks of degree 6, 128 variables of
 * degree 3.  Each iteration runs the check-node loop (with the
 * nested two-level min-tracking branch in its innermost scan) and
 * then the variable-node loop — serial loops.  Table 1: nested
 * branches innermost, imperfect nested, serial loops.
 */

#include <vector>

#include "ir/builder.h"
#include "sim/rng.h"
#include "workloads/kernels.h"

namespace marionette
{

namespace
{

constexpr int kVars = 128;
constexpr int kChecks = 64;
constexpr int kCheckDeg = 6;
constexpr int kVarDeg = 3;
constexpr int kIters = 20;

enum Block : BlockId
{
    bInit = 0,
    bIterLoop,   // decoding iterations (depth 1)
    bCheckLoop,  // check nodes (depth 2)
    bScanLoop,   // scan check's edges for min1/min2 (depth 3)
    bLoadAbs,    // load LLR, abs, sign
    bMin1If,     // if (mag < min1)
    bMin1Upd,
    bMin2If,     // else if (mag < min2)
    bMin2Upd,
    bMinSkip,
    bScanLatch,
    bWriteLoop,  // write check messages (depth 3, serial)
    bWriteBody,
    bCheckLatch,
    bVarLoop,    // variable nodes (depth 2, serial to check loop)
    bVarBody,    // sum channel + messages
    bIterLatch,
    bDone
};

constexpr int kEdges = kChecks * kCheckDeg;

/** Edge-to-variable map of the trace's permuted H matrix: edge
 *  c*6+k joins check c to variable (c*2 + k*21 + (k*k*7) mod 128)
 *  mod 128.  Every such offset is even, so the edges land on the
 *  64 even variables, six each. */
std::vector<int>
permutedGraph()
{
    std::vector<int> var_of;
    var_of.reserve(static_cast<std::size_t>(kEdges));
    for (int c = 0; c < kChecks; ++c)
        for (int k = 0; k < kCheckDeg; ++k)
            var_of.push_back((c * 2 + k * 21 + (k * k * 7) % kVars) %
                             kVars);
    return var_of;
}

/** Edge-to-variable map the machine's CDFG computes: edge e ->
 *  variable e mod 128, so variable v owns edges v, v+128, v+256. */
std::vector<int>
moduloGraph()
{
    std::vector<int> var_of(static_cast<std::size_t>(kEdges));
    for (int e = 0; e < kEdges; ++e)
        var_of[static_cast<std::size_t>(e)] = e & (kVars - 1);
    return var_of;
}

/** The decoder's memory after a golden run. */
struct LdpcRun
{
    std::vector<Word> channel; ///< Input LLRs, per variable.
    std::vector<Word> llr;     ///< Posterior LLRs, per variable.
    std::vector<Word> msg;     ///< Check-to-variable, per edge.
};

/** The LDPC golden: attenuated min-sum over the H matrix whose edge
 *  e = c*6+k joins check c to variable @p var_of[e].  No port is
 *  observed; the machine checks llr and msg. */
template <class Recorder>
LdpcRun
ldpcGolden(Recorder &rec, const std::vector<int> &var_of)
{
    LdpcRun r;
    Rng rng(0x5eed0009);
    r.channel.resize(static_cast<std::size_t>(kVars));
    for (Word &v : r.channel)
        v = static_cast<Word>(rng.nextRange(-15, 25));
    r.llr = r.channel;
    r.msg.assign(static_cast<std::size_t>(kEdges), 0);
    auto ext_of = [&](int e) {
        return r.llr[static_cast<std::size_t>(
                   var_of[static_cast<std::size_t>(e)])] -
               r.msg[static_cast<std::size_t>(e)];
    };

    // Each iteration's posteriors: the channel plus every message
    // the check loop writes, folded in as it is written.
    std::vector<Word> next;

    rec.block(bInit);
    rec.round(bIterLoop);
    for (int it = 0; it < kIters; ++it) {
        rec.iteration(bIterLoop);
        next = r.channel;
        rec.round(bCheckLoop);
        for (int c = 0; c < kChecks; ++c) {
            rec.iteration(bCheckLoop);
            Word min1 = 0x7fffffff, min2 = 0x7fffffff;
            int arg = 0;
            Word sign_prod = 0;
            rec.round(bScanLoop);
            for (int k = 0; k < kCheckDeg; ++k) {
                rec.iteration(bScanLoop);
                rec.block(bLoadAbs);
                Word ext = ext_of(c * kCheckDeg + k);
                Word mag = ext < 0 ? -ext : ext;
                sign_prod ^= ext < 0 ? 1 : 0;
                rec.block(bMin1If);
                if (mag < min1) {
                    rec.block(bMin1Upd);
                    min2 = min1;
                    min1 = mag;
                    arg = k;
                } else {
                    rec.block(bMin2If);
                    if (mag < min2) {
                        rec.block(bMin2Upd);
                        min2 = mag;
                    } else {
                        rec.block(bMinSkip);
                    }
                }
                rec.block(bScanLatch);
            }
            rec.round(bWriteLoop);
            for (int k = 0; k < kCheckDeg; ++k) {
                rec.iteration(bWriteLoop);
                rec.block(bWriteBody);
                int e = c * kCheckDeg + k;
                Word ext = ext_of(e);
                Word mag = k == arg ? min2 : min1;
                // Attenuated min-sum (3/4 scaling).
                mag = (mag * 3) >> 2;
                Word s = sign_prod ^ (ext < 0 ? 1 : 0);
                Word m = s ? -mag : mag;
                r.msg[static_cast<std::size_t>(e)] = m;
                next[static_cast<std::size_t>(
                    var_of[static_cast<std::size_t>(e)])] += m;
            }
            rec.block(bCheckLatch);
        }
        // Variable update: llr = channel + sum of messages.
        rec.round(bVarLoop);
        for (int v = 0; v < kVars; ++v) {
            rec.iteration(bVarLoop);
            rec.block(bVarBody);
            r.llr[static_cast<std::size_t>(v)] =
                next[static_cast<std::size_t>(v)];
        }
        rec.block(bIterLatch);
    }
    rec.block(bDone);
    return r;
}

class LdpcWorkload : public Workload
{
  public:
    std::string name() const override { return "LDPC"; }
    std::string fullName() const override
    { return "LDPC Decode"; }
    std::string sizeDesc() const override
    { return "20 iters; 128 code length"; }

    Cdfg
    buildCdfg() const override
    {
        CdfgBuilder b("ldpc");
        BlockId init = b.addBlock("init");
        BlockId iter = b.addLoopHeader("iter_loop");
        BlockId check = b.addLoopHeader("check_loop");
        BlockId scan = b.addLoopHeader("scan_loop");
        BlockId loadabs = b.addBlock("load_abs");
        BlockId min1if = b.addBranchBlock("min1_if");
        BlockId min1upd = b.addBlock("min1_upd");
        BlockId min2if = b.addBranchBlock("min2_if");
        BlockId min2upd = b.addBlock("min2_upd");
        BlockId minskip = b.addBlock("min_skip");
        BlockId scanlatch = b.addBlock("scan_latch");
        BlockId wloop = b.addLoopHeader("write_loop");
        BlockId wbody = b.addBlock("write_body");
        BlockId clatch = b.addBlock("check_latch");
        BlockId vloop = b.addLoopHeader("var_loop");
        BlockId vbody = b.addBlock("var_body");
        BlockId ilatch = b.addBlock("iter_latch");
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
            d.addOutput("it", c);
        }
        for (BlockId hdr : {iter, check, scan, wloop, vloop}) {
            Dfg &d = b.dfg(hdr);
            dfg_patterns::addCountedLoop(d, 0, 1, "bound");
        }
        {   // extrinsic = llr[v] - msg[e] for edge e = c*6+k of the
            // regular H matrix v = e mod 128; the loads are fenced
            // on the msg/llr store chains (carried store tokens) so
            // the flattened pipeline respects memory order.
            Dfg &d = b.dfg(loadabs);
            int c = d.addInput("c");
            int k = d.addInput("k");
            int lw = d.addInput("llrw");
            int mw = d.addInput("msgw");
            NodeId c6 = d.addNode(Opcode::Mul, Operand::input(c),
                                  Operand::imm(6));
            NodeId e = d.addNode(Opcode::Add, Operand::node(c6),
                                 Operand::input(k));
            NodeId v = d.addNode(Opcode::And, Operand::node(e),
                                 Operand::imm(127));
            NodeId fs = d.addNode(Opcode::Add, Operand::input(lw),
                                  Operand::input(mw));
            NodeId z = d.addNode(Opcode::And, Operand::node(fs),
                                 Operand::imm(0), Operand::none(),
                                 "fence");
            NodeId la = d.addNode(Opcode::Add, Operand::node(v),
                                  Operand::node(z));
            NodeId lv = d.addNode(Opcode::Load, Operand::node(la),
                                  Operand::none(), Operand::none(),
                                  "llr");
            NodeId ma = d.addNode(Opcode::Add, Operand::node(e),
                                  Operand::node(z));
            NodeId mv = d.addNode(Opcode::Load, Operand::node(ma),
                                  Operand::none(), Operand::none(),
                                  "msg");
            NodeId ext = d.addNode(Opcode::Sub, Operand::node(lv),
                                   Operand::node(mv));
            NodeId mag = d.addNode(Opcode::Abs, Operand::node(ext));
            NodeId sgn = d.addNode(Opcode::CmpLt,
                                   Operand::node(ext),
                                   Operand::imm(0));
            int sp = d.addInput("sign_prod");
            NodeId spx = d.addNode(Opcode::Xor, Operand::input(sp),
                                   Operand::node(sgn));
            d.addOutput("mag", mag);
            d.addOutput("sign_prod", spx);
        }
        {   // if (mag < min1); the running arg-min rides along so
            // the not-taken path keeps it.
            Dfg &d = b.dfg(min1if);
            int mag = d.addInput("mag");
            int min1 = d.addInput("min1");
            int arg = d.addInput("arg");
            NodeId lt = d.addNode(Opcode::CmpLt,
                                  Operand::input(mag),
                                  Operand::input(min1));
            d.addNode(Opcode::Branch, Operand::node(lt));
            NodeId ac = d.addNode(Opcode::Copy,
                                  Operand::input(arg));
            d.addOutput("lt", lt);
            d.addOutput("arg", ac);
        }
        {   // min2 = min1; min1 = mag; arg = k.
            Dfg &d = b.dfg(min1upd);
            int mag = d.addInput("mag");
            int min1 = d.addInput("min1");
            int k = d.addInput("k");
            NodeId nmin2 = d.addNode(Opcode::Copy,
                                     Operand::input(min1));
            NodeId nmin1 = d.addNode(Opcode::Copy,
                                     Operand::input(mag));
            NodeId narg = d.addNode(Opcode::Copy,
                                    Operand::input(k));
            d.addOutput("min2", nmin2);
            d.addOutput("min1", nmin1);
            d.addOutput("arg", narg);
        }
        {   // else if (mag < min2).
            Dfg &d = b.dfg(min2if);
            int mag = d.addInput("mag");
            int min2 = d.addInput("min2");
            NodeId lt = d.addNode(Opcode::CmpLt,
                                  Operand::input(mag),
                                  Operand::input(min2));
            d.addNode(Opcode::Branch, Operand::node(lt));
            d.addOutput("lt", lt);
        }
        {
            Dfg &d = b.dfg(min2upd);
            int mag = d.addInput("mag");
            NodeId nmin2 = d.addNode(Opcode::Copy,
                                     Operand::input(mag));
            d.addOutput("min2", nmin2);
        }
        copyBlock(minskip);
        copyBlock(scanlatch);
        {   // write: msg[e] = +/- attenuated (k == arg ? min2 :
            // min1), sign = sign_prod ^ sign(ext).
            Dfg &d = b.dfg(wbody);
            int c = d.addInput("c");
            int kw = d.addInput("kw");
            int min1 = d.addInput("min1");
            int min2 = d.addInput("min2");
            int arg = d.addInput("arg");
            int sp = d.addInput("sign_prod");
            int lw = d.addInput("llrw");
            int mw = d.addInput("msgw");
            NodeId c6 = d.addNode(Opcode::Mul, Operand::input(c),
                                  Operand::imm(6));
            NodeId e = d.addNode(Opcode::Add, Operand::node(c6),
                                 Operand::input(kw));
            NodeId v = d.addNode(Opcode::And, Operand::node(e),
                                 Operand::imm(127));
            NodeId fs = d.addNode(Opcode::Add, Operand::input(lw),
                                  Operand::input(mw));
            NodeId z = d.addNode(Opcode::And, Operand::node(fs),
                                 Operand::imm(0), Operand::none(),
                                 "fence");
            NodeId la = d.addNode(Opcode::Add, Operand::node(v),
                                  Operand::node(z));
            NodeId lv = d.addNode(Opcode::Load, Operand::node(la),
                                  Operand::none(), Operand::none(),
                                  "llr");
            NodeId ma = d.addNode(Opcode::Add, Operand::node(e),
                                  Operand::node(z));
            NodeId mv = d.addNode(Opcode::Load, Operand::node(ma),
                                  Operand::none(), Operand::none(),
                                  "msg");
            NodeId ext = d.addNode(Opcode::Sub, Operand::node(lv),
                                   Operand::node(mv));
            NodeId sgn = d.addNode(Opcode::CmpLt,
                                   Operand::node(ext),
                                   Operand::imm(0));
            NodeId eq = d.addNode(Opcode::CmpEq,
                                  Operand::input(kw),
                                  Operand::input(arg));
            NodeId mag = d.addNode(Opcode::Select,
                                   Operand::node(eq),
                                   Operand::input(min2),
                                   Operand::input(min1));
            NodeId m3 = d.addNode(Opcode::Mul, Operand::node(mag),
                                  Operand::imm(3));
            NodeId att = d.addNode(Opcode::Sra, Operand::node(m3),
                                   Operand::imm(2));
            NodeId sf = d.addNode(Opcode::Xor, Operand::input(sp),
                                  Operand::node(sgn));
            NodeId neg = d.addNode(Opcode::Neg, Operand::node(att));
            NodeId sel = d.addNode(Opcode::Select,
                                   Operand::node(sf),
                                   Operand::node(neg),
                                   Operand::node(att));
            NodeId st = d.addNode(Opcode::Store, Operand::node(e),
                                  Operand::node(sel),
                                  Operand::none(), "msg");
            d.addOutput("msgw", st);
        }
        {   // per-check finalize: fold the sign product into the
            // syndrome word (imperfect work at the check level).
            Dfg &d = b.dfg(clatch);
            int sign = d.addInput("sign_prod");
            int syn = d.addInput("syndrome");
            NodeId bit = d.addNode(Opcode::And,
                                   Operand::input(sign),
                                   Operand::imm(1));
            NodeId nx = d.addNode(Opcode::Xor,
                                  Operand::input(syn),
                                  Operand::node(bit));
            d.addOutput("syndrome", nx);
        }
        {   // variable node: llr[v] = channel[v] + the three check
            // messages of the regular H matrix (edges v, v+128,
            // v+256), fenced on the msg store chain.
            Dfg &d = b.dfg(vbody);
            int v = d.addInput("var");
            int mw = d.addInput("msgw");
            NodeId z = d.addNode(Opcode::And, Operand::input(mw),
                                 Operand::imm(0), Operand::none(),
                                 "fence");
            NodeId a0 = d.addNode(Opcode::Add, Operand::input(v),
                                  Operand::node(z));
            NodeId ch = d.addNode(Opcode::Load, Operand::node(a0),
                                  Operand::none(), Operand::none(),
                                  "channel");
            NodeId m0 = d.addNode(Opcode::Load, Operand::node(a0),
                                  Operand::none(), Operand::none(),
                                  "msg");
            NodeId a1 = d.addNode(Opcode::Add, Operand::node(a0),
                                  Operand::imm(128));
            NodeId m1 = d.addNode(Opcode::Load, Operand::node(a1),
                                  Operand::none(), Operand::none(),
                                  "msg");
            NodeId a2 = d.addNode(Opcode::Add, Operand::node(a1),
                                  Operand::imm(128));
            NodeId m2 = d.addNode(Opcode::Load, Operand::node(a2),
                                  Operand::none(), Operand::none(),
                                  "msg");
            NodeId s0 = d.addNode(Opcode::Add, Operand::node(ch),
                                  Operand::node(m0));
            NodeId s1 = d.addNode(Opcode::Add, Operand::node(s0),
                                  Operand::node(m1));
            NodeId s2 = d.addNode(Opcode::Add, Operand::node(s1),
                                  Operand::node(m2));
            NodeId st = d.addNode(Opcode::Store, Operand::input(v),
                                  Operand::node(s2),
                                  Operand::none(), "llr");
            d.addOutput("llr", s2);
            d.addOutput("llrw", st);
        }
        copyBlock(ilatch);
        copyBlock(done);

        b.fall(init, iter);
        b.fall(iter, check);
        b.fall(check, scan);
        b.fall(scan, loadabs);
        b.fall(loadabs, min1if);
        b.branch(min1if, min1upd, min2if);
        b.branch(min2if, min2upd, minskip);
        b.fall(min1upd, scanlatch);
        b.fall(min2upd, scanlatch);
        b.fall(minskip, scanlatch);
        b.loopBack(scanlatch, scan);
        b.loopExit(scan, wloop);
        b.fall(wloop, wbody);
        b.loopBack(wbody, wloop);
        b.loopExit(wloop, clatch);
        b.loopBack(clatch, check);
        b.loopExit(check, vloop);
        b.fall(vloop, vbody);
        b.loopBack(vbody, vloop);
        b.loopExit(vloop, ilatch);
        b.loopBack(ilatch, iter);
        b.loopExit(iter, done);
        return b.finish();
    }

    WorkloadMachineSpec
    machineSpec() const override
    {
        // Machine-run data over the *regular* (3,6) H matrix the
        // CDFG computes (moduloGraph): check c owns edges
        // c*6..c*6+5, variable v owns edges v, v+128, v+256.
        constexpr Word base_llr = 0;       // 128
        constexpr Word base_ch = 128;      // 128
        constexpr Word base_msg = 256;     // 384

        WorkloadMachineSpec spec;
        spec.available = true;
        spec.loopBounds["iter_loop"] = {0, kIters, 1};
        spec.loopBounds["check_loop"] = {0, kChecks, 1};
        spec.loopBounds["scan_loop"] = {0, kCheckDeg, 1};
        spec.loopBounds["write_loop"] = {0, kCheckDeg, 1};
        spec.loopBounds["var_loop"] = {0, kVars, 1};
        spec.inductionPorts["check_loop"] = "c";
        spec.inductionPorts["scan_loop"] = "k";
        spec.inductionPorts["write_loop"] = "kw";
        spec.inductionPorts["var_loop"] = "var";
        spec.arrayBases["llr"] = base_llr;
        spec.arrayBases["channel"] = base_ch;
        spec.arrayBases["msg"] = base_msg;
        // The min tracker re-seeds at every scan-round entry.
        spec.roundResets["scan_loop"] = {{"min1", 0x7fffffff},
                                         {"min2", 0x7fffffff},
                                         {"arg", 0},
                                         {"sign_prod", 0}};
        // Store-chain fences boot from 0.
        spec.scalars["llrw"] = 0;
        spec.scalars["msgw"] = 0;

        StreamRecorder rec;
        LdpcRun r = ldpcGolden(rec, moduloGraph());
        // llr starts as the channel; msg starts zeroed.
        spec.memoryImage = r.channel;
        spec.memoryImage.insert(spec.memoryImage.end(),
                                r.channel.begin(), r.channel.end());
        spec.memoryImage.resize(
            static_cast<std::size_t>(base_msg + kEdges), 0);
        spec.expectedMemory = {{"llr", base_llr, std::move(r.llr)},
                               {"msg", base_msg, std::move(r.msg)}};
        return spec;
    }

    std::uint64_t
    runGolden(KernelRecorder &rec) const override
    {
        LdpcRun r = ldpcGolden(rec, permutedGraph());
        std::uint64_t sum = 0;
        for (Word v : r.llr)
            sum = sum * 3 + (v < 0 ? 1 : 0);
        return sum;
    }

    // Note: the full LDPC application of Fig. 17 combines this
    // intensive kernel with non-intensive front-end processing;
    // bench_fig17 composes it from LDPC + GP cycles.
};

} // namespace

const Workload &
ldpcWorkload()
{
    static LdpcWorkload instance;
    return instance;
}

} // namespace marionette

/**
 * @file
 * Needleman-Wunsch (NW) — 128 x 128 sequence alignment.
 *
 * MachSuite-style DP over the alignment matrix with a *nested*
 * branch (three-way max) in the innermost loop.  Table 1: nested
 * branches innermost, nested loops.
 */

#include <vector>

#include "ir/builder.h"
#include "sim/rng.h"
#include "workloads/kernels.h"

namespace marionette
{

namespace
{

constexpr int kLen = 128;
constexpr Word kMatch = 1;
constexpr Word kMismatch = -1;
constexpr Word kGap = -1;

enum Block : BlockId
{
    bInit = 0,
    bRowLoop,   // depth 1
    bColLoop,   // depth 2
    bScores,    // compute diag/up/left candidates
    bIf1,       // if (diag >= up)
    bIf2a,      // taken:   if (diag >= left)
    bIf2b,      // nottaken:if (up >= left)
    bPickDiag,
    bPickLeftA,
    bPickUp,
    bPickLeftB,
    bStoreCell, // join: M[i][j] = winner
    bRowLatch,
    bTraceLoop, // backtrace (depth 1)
    bTraceBody,
    bDone
};

// Machine memory layout: M (kW x kW), seqA, seqB, trace.
constexpr int kW = kLen + 1;
constexpr Word kBaseA = kW * kW;
constexpr Word kBaseB = kBaseA + kLen;
constexpr Word kBaseTrace = kBaseB + kLen;

/** The memory image: M's boundary row and column (gap penalties),
 *  then the two ACGT sequences, drawn once for trace and machine. */
std::vector<Word>
nwMemory()
{
    Rng rng(0x5eed0004);
    std::vector<Word> mem(static_cast<std::size_t>(kBaseTrace), 0);
    for (int i = 0; i <= kLen; ++i) {
        mem[static_cast<std::size_t>(i * kW)] = kGap * i;
        mem[static_cast<std::size_t>(i)] = kGap * i;
    }
    for (int i = 0; i < 2 * kLen; ++i) // seqA, then seqB.
        mem[static_cast<std::size_t>(kBaseA + i)] =
            static_cast<Word>(rng.nextBounded(4));
    return mem;
}

/** The NW golden over the image @p mem: fills M in place,
 *  observing port 0 ("win") at every cell, then walks the main
 *  diagonal from the corner, observing port 1 ("tsum").  @return
 *  the diagonal walk (the "trace" array). */
template <class Recorder>
std::vector<Word>
nwGolden(Recorder &rec, std::vector<Word> &mem)
{
    Word *m = mem.data();
    const Word *seq_a = m + kBaseA;
    const Word *seq_b = m + kBaseB;

    rec.block(bInit);
    rec.round(bRowLoop);
    for (int i = 1; i <= kLen; ++i) {
        rec.iteration(bRowLoop);
        rec.round(bColLoop);
        for (int j = 1; j <= kLen; ++j) {
            rec.iteration(bColLoop);
            rec.block(bScores);
            Word sub = seq_a[i - 1] == seq_b[j - 1] ? kMatch
                                                    : kMismatch;
            Word diag = m[(i - 1) * kW + (j - 1)] + sub;
            Word up = m[(i - 1) * kW + j] + kGap;
            Word left = m[i * kW + (j - 1)] + kGap;
            Word win;
            rec.block(bIf1);
            if (diag >= up) {
                rec.block(bIf2a);
                if (diag >= left) {
                    rec.block(bPickDiag);
                    win = diag;
                } else {
                    rec.block(bPickLeftA);
                    win = left;
                }
            } else {
                rec.block(bIf2b);
                if (up >= left) {
                    rec.block(bPickUp);
                    win = up;
                } else {
                    rec.block(bPickLeftB);
                    win = left;
                }
            }
            rec.observe(0, win);
            rec.block(bStoreCell);
            m[i * kW + j] = win;
        }
        rec.block(bRowLatch);
    }

    // Backtrace along the main diagonal (simplified greedy).
    std::vector<Word> trace(static_cast<std::size_t>(kLen));
    Word tsum = 0;
    rec.round(bTraceLoop);
    for (int jt = 0; jt < kLen; ++jt) {
        rec.iteration(bTraceLoop);
        rec.block(bTraceBody);
        int ii = kLen - jt;
        Word v = m[ii * kW + ii];
        trace[static_cast<std::size_t>(jt)] = v;
        tsum = static_cast<Word>(static_cast<UWord>(tsum) * 31u +
                                 static_cast<UWord>(v));
        rec.observe(1, tsum);
    }
    rec.block(bDone);
    return trace;
}

class NwWorkload : public Workload
{
  public:
    std::string name() const override { return "NW"; }
    std::string fullName() const override
    { return "Needleman-Wunsch"; }
    std::string sizeDesc() const override { return "128 x 128"; }

    Cdfg
    buildCdfg() const override
    {
        CdfgBuilder b("nw");
        BlockId init = b.addBlock("init");
        BlockId row = b.addLoopHeader("row_loop");
        BlockId col = b.addLoopHeader("col_loop");
        BlockId scores = b.addBlock("scores");
        BlockId if1 = b.addBranchBlock("if_diag_up");
        BlockId if2a = b.addBranchBlock("if_diag_left");
        BlockId if2b = b.addBranchBlock("if_up_left");
        BlockId pdiag = b.addBlock("pick_diag");
        BlockId plefta = b.addBlock("pick_left_a");
        BlockId pup = b.addBlock("pick_up");
        BlockId pleftb = b.addBlock("pick_left_b");
        BlockId cell = b.addBlock("store_cell");
        BlockId rlatch = b.addBlock("row_latch");
        BlockId trace = b.addLoopHeader("trace_loop");
        BlockId traceb = b.addBlock("trace_body");
        BlockId done = b.addBlock("done");

        auto copyBlock = [&](BlockId id, const char *out_name) {
            Dfg &d = b.dfg(id);
            int x = d.addInput("x");
            NodeId c = d.addNode(Opcode::Copy, Operand::input(x));
            d.addOutput(out_name, c);
        };

        {
            Dfg &d = b.dfg(init);
            NodeId c = d.addNode(Opcode::Const, Operand::imm(0));
            d.addOutput("i", c);
        }
        for (BlockId hdr : {row, col, trace}) {
            Dfg &d = b.dfg(hdr);
            dfg_patterns::addCountedLoop(d, 1, 1, "bound");
        }
        {   // candidates: the previous row is read from memory, the
            // left neighbour is the previous iteration's winner
            // (loop-carried), with the column-0 boundary selected
            // at the start of each row.
            Dfg &d = b.dfg(scores);
            int i = d.addInput("i");
            int j = d.addInput("j");
            int winc = d.addInput("win");
            NodeId im1 = d.addNode(Opcode::Sub, Operand::input(i),
                                   Operand::imm(1));
            NodeId a = d.addNode(Opcode::Load, Operand::node(im1),
                                 Operand::none(), Operand::none(),
                                 "seqA");
            NodeId jm1 = d.addNode(Opcode::Sub, Operand::input(j),
                                   Operand::imm(1));
            NodeId bb2 = d.addNode(Opcode::Load, Operand::node(jm1),
                                   Operand::none(), Operand::none(),
                                   "seqB");
            NodeId eq = d.addNode(Opcode::CmpEq, Operand::node(a),
                                  Operand::node(bb2));
            NodeId sc = d.addNode(Opcode::Select, Operand::node(eq),
                                  Operand::imm(kMatch),
                                  Operand::imm(kMismatch), "sub");
            NodeId rb = d.addNode(Opcode::Mul, Operand::node(im1),
                                  Operand::imm(kLen + 1));
            NodeId da = d.addNode(Opcode::Add, Operand::node(rb),
                                  Operand::node(jm1));
            NodeId mnw = d.addNode(Opcode::Load, Operand::node(da),
                                   Operand::none(), Operand::none(),
                                   "M");
            NodeId diag = d.addNode(Opcode::Add, Operand::node(mnw),
                                    Operand::node(sc));
            NodeId ua = d.addNode(Opcode::Add, Operand::node(rb),
                                  Operand::input(j));
            NodeId mn = d.addNode(Opcode::Load, Operand::node(ua),
                                  Operand::none(), Operand::none(),
                                  "M");
            NodeId up = d.addNode(Opcode::Add, Operand::node(mn),
                                  Operand::imm(kGap));
            NodeId isf = d.addNode(Opcode::CmpEq, Operand::input(j),
                                   Operand::imm(1));
            NodeId bnd = d.addNode(Opcode::Mul, Operand::input(i),
                                   Operand::imm(kGap), // M[i][0]
                                   Operand::none(), "bound");
            NodeId mw = d.addNode(Opcode::Select, Operand::node(isf),
                                  Operand::node(bnd),
                                  Operand::input(winc));
            NodeId left = d.addNode(Opcode::Add, Operand::node(mw),
                                    Operand::imm(kGap));
            d.addOutput("diag", diag);
            d.addOutput("up", up);
            d.addOutput("left", left);
        }
        auto branchBlock = [&](BlockId id, const char *x,
                               const char *y) {
            Dfg &d = b.dfg(id);
            int xi = d.addInput(x);
            int yi = d.addInput(y);
            NodeId ge = d.addNode(Opcode::CmpGe, Operand::input(xi),
                                  Operand::input(yi));
            d.addNode(Opcode::Branch, Operand::node(ge));
            d.addOutput("ge", ge);
        };
        branchBlock(if1, "diag", "up");
        branchBlock(if2a, "diag", "left");
        branchBlock(if2b, "up", "left");
        auto pickBlock = [&](BlockId id, const char *src) {
            Dfg &d = b.dfg(id);
            int x = d.addInput(src);
            NodeId c = d.addNode(Opcode::Copy, Operand::input(x));
            d.addOutput("win", c);
        };
        pickBlock(pdiag, "diag");
        pickBlock(plefta, "left");
        pickBlock(pup, "up");
        pickBlock(pleftb, "left");
        {
            Dfg &d = b.dfg(cell);
            int i = d.addInput("i");
            int j = d.addInput("j");
            int win = d.addInput("win");
            NodeId rb = d.addNode(Opcode::Mul, Operand::input(i),
                                  Operand::imm(kLen + 1));
            NodeId ca = d.addNode(Opcode::Add, Operand::node(rb),
                                  Operand::input(j));
            d.addNode(Opcode::Store, Operand::node(ca),
                      Operand::input(win), Operand::none(), "M");
            NodeId c = d.addNode(Opcode::Copy, Operand::input(win));
            d.addOutput("x", c);
        }
        copyBlock(rlatch, "x");
        {   // trace body: walk the main diagonal from the corner,
            // folding the cells into a checksum stream.
            Dfg &d = b.dfg(traceb);
            int jt = d.addInput("jt");
            int last = d.addInput("lastI");
            int sum = d.addInput("tsum");
            NodeId ii = d.addNode(Opcode::Sub, Operand::input(last),
                                  Operand::input(jt));
            NodeId da = d.addNode(Opcode::Mul, Operand::node(ii),
                                  Operand::imm(kLen + 2));
            NodeId v = d.addNode(Opcode::Load, Operand::node(da),
                                 Operand::none(), Operand::none(),
                                 "M");
            d.addNode(Opcode::Store, Operand::input(jt),
                      Operand::node(v), Operand::none(), "trace");
            NodeId m31 = d.addNode(Opcode::Mul, Operand::input(sum),
                                   Operand::imm(31));
            NodeId ns = d.addNode(Opcode::Add, Operand::node(m31),
                                  Operand::node(v));
            d.addOutput("tsum", ns);
        }
        copyBlock(done, "x");

        b.fall(init, row);
        b.fall(row, col);
        b.fall(col, scores);
        b.fall(scores, if1);
        b.branch(if1, if2a, if2b);
        b.branch(if2a, pdiag, plefta);
        b.branch(if2b, pup, pleftb);
        b.fall(pdiag, cell);
        b.fall(plefta, cell);
        b.fall(pup, cell);
        b.fall(pleftb, cell);
        b.loopBack(cell, col);
        b.loopExit(col, rlatch);
        b.loopBack(rlatch, row);
        b.loopExit(row, trace);
        b.fall(trace, traceb);
        b.loopBack(traceb, trace);
        b.loopExit(trace, done);
        return b.finish();
    }

    WorkloadMachineSpec
    machineSpec() const override
    {
        WorkloadMachineSpec spec;
        spec.available = true;
        spec.loopBounds["row_loop"] = {1, kW, 1};
        spec.loopBounds["col_loop"] = {1, kW, 1};
        spec.loopBounds["trace_loop"] = {0, kLen, 1};
        spec.inductionPorts["row_loop"] = "i";
        spec.inductionPorts["col_loop"] = "j";
        spec.inductionPorts["trace_loop"] = "jt";
        spec.arrayBases["M"] = 0;
        spec.arrayBases["seqA"] = kBaseA;
        spec.arrayBases["seqB"] = kBaseB;
        spec.arrayBases["trace"] = kBaseTrace;
        spec.scalars["lastI"] = kLen;
        spec.scalars["tsum"] = 0;

        spec.memoryImage = nwMemory();
        std::vector<Word> mem = spec.memoryImage;
        StreamRecorder rec({static_cast<std::size_t>(kLen) * kLen,
                            static_cast<std::size_t>(kLen)});
        std::vector<Word> trace = nwGolden(rec, mem);
        mem.resize(static_cast<std::size_t>(kBaseA)); // M alone.
        spec.observePorts = {"win", "tsum"};
        spec.expectedOutputs = rec.take();
        spec.expectedMemory = {
            {"M", 0, std::move(mem)},
            {"trace", kBaseTrace, std::move(trace)}};
        return spec;
    }

    std::uint64_t
    runGolden(KernelRecorder &rec) const override
    {
        std::vector<Word> mem = nwMemory();
        std::uint64_t sum = 0;
        for (Word v : nwGolden(rec, mem))
            sum = sum * 31 +
                  static_cast<std::uint64_t>(static_cast<UWord>(v));
        return sum;
    }
};

} // namespace

const Workload &
nwWorkload()
{
    static NwWorkload instance;
    return instance;
}

} // namespace marionette

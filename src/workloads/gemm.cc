/**
 * @file
 * GEMM — 64 x 64 integer matrix multiply (MachSuite).
 *
 * The canonical Imperfect Loop (Table 1: no branches, imperfect
 * nested loops): the accumulator reset and the C-store live at the
 * middle loop level while the MAC loop runs innermost.  Fig. 15's
 * best case: Agile PE Assignment folds the outer blocks into the
 * dense inner pipeline (the paper reports a 134x outer-BB PE
 * utilization gain here).
 */

#include <vector>

#include "ir/builder.h"
#include "sim/rng.h"
#include "workloads/kernels.h"

namespace marionette
{

namespace
{

constexpr int kDim = 64;

enum Block : BlockId
{
    bInit = 0,
    bILoop,   // rows (depth 1)
    bJLoop,   // cols (depth 2)
    bZero,    // sum = 0 (imperfect work at depth 2)
    bKLoop,   // dot product (depth 3)
    bMac,     // sum += A[i][k] * B[k][j]
    bStoreC,  // C[i][j] = sum (depth 2)
    bILatch,
    bDone
};

constexpr int kDim2 = kDim * kDim;

/** A then B, row-major: the machine's memory image. */
std::vector<Word>
gemmInputs()
{
    Rng rng(0x5eed000a);
    std::vector<Word> ab(static_cast<std::size_t>(2 * kDim2));
    for (Word &v : ab)
        v = static_cast<Word>(rng.nextRange(-9, 9));
    return ab;
}

/** The GEMM golden over @p ab (A then B), observing port 0 ("sum")
 *  after every (i, j, k) term.  @return C. */
template <class Recorder>
std::vector<Word>
gemmGolden(Recorder &rec, const std::vector<Word> &ab)
{
    const Word *a = ab.data();
    const Word *bm = a + kDim2;
    std::vector<Word> c(static_cast<std::size_t>(kDim2), 0);

    rec.block(bInit);
    rec.round(bILoop);
    for (int i = 0; i < kDim; ++i) {
        rec.iteration(bILoop);
        rec.round(bJLoop);
        for (int j = 0; j < kDim; ++j) {
            rec.iteration(bJLoop);
            rec.block(bZero);
            Word sum = 0;
            rec.round(bKLoop);
            for (int k = 0; k < kDim; ++k) {
                rec.iteration(bKLoop);
                rec.block(bMac);
                sum += a[i * kDim + k] * bm[k * kDim + j];
                rec.observe(0, sum);
            }
            rec.block(bStoreC);
            c[static_cast<std::size_t>(i * kDim + j)] = sum;
        }
        rec.block(bILatch);
    }
    rec.block(bDone);
    return c;
}

class GemmWorkload : public Workload
{
  public:
    std::string name() const override { return "GEMM"; }
    std::string fullName() const override { return "GEMM"; }
    std::string sizeDesc() const override { return "64 x 64"; }

    Cdfg
    buildCdfg() const override
    {
        CdfgBuilder b("gemm");
        BlockId init = b.addBlock("init");
        BlockId iloop = b.addLoopHeader("i_loop");
        BlockId jloop = b.addLoopHeader("j_loop");
        BlockId zero = b.addBlock("zero_sum");
        BlockId kloop = b.addLoopHeader("k_loop");
        BlockId mac = b.addBlock("mac");
        BlockId storec = b.addBlock("store_c");
        BlockId ilatch = b.addBlock("i_latch");
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
            d.addOutput("i", c);
        }
        for (BlockId hdr : {iloop, jloop, kloop}) {
            Dfg &d = b.dfg(hdr);
            dfg_patterns::addCountedLoop(d, 0, 1, "n");
        }
        {
            Dfg &d = b.dfg(zero);
            NodeId z = d.addNode(Opcode::Const, Operand::imm(0));
            d.addOutput("sum", z);
        }
        {   // sum += A[i*n+k] * B[k*n+j].
            Dfg &d = b.dfg(mac);
            int i = d.addInput("i");
            int j = d.addInput("j");
            int k = d.addInput("k");
            int sum = d.addInput("sum");
            NodeId ai = d.addNode(Opcode::Shl, Operand::input(i),
                                  Operand::imm(6));
            NodeId ai2 = d.addNode(Opcode::Add, Operand::node(ai),
                                   Operand::input(k));
            NodeId a = d.addNode(Opcode::Load, Operand::node(ai2),
                                 Operand::none(), Operand::none(),
                                 "A");
            NodeId bi = d.addNode(Opcode::Shl, Operand::input(k),
                                  Operand::imm(6));
            NodeId bi2 = d.addNode(Opcode::Add, Operand::node(bi),
                                   Operand::input(j));
            NodeId bb2 = d.addNode(Opcode::Load, Operand::node(bi2),
                                   Operand::none(), Operand::none(),
                                   "B");
            NodeId m = d.addNode(Opcode::Mac, Operand::node(a),
                                 Operand::node(bb2),
                                 Operand::input(sum), "sum'");
            d.addOutput("sum", m);
        }
        {
            Dfg &d = b.dfg(storec);
            int i = d.addInput("i");
            int j = d.addInput("j");
            int sum = d.addInput("sum");
            NodeId ci = d.addNode(Opcode::Shl, Operand::input(i),
                                  Operand::imm(6));
            NodeId ci2 = d.addNode(Opcode::Add, Operand::node(ci),
                                   Operand::input(j));
            d.addNode(Opcode::Store, Operand::node(ci2),
                      Operand::input(sum), Operand::none(), "C");
            NodeId c = d.addNode(Opcode::Copy, Operand::input(sum));
            d.addOutput("x", c);
        }
        copyBlock(ilatch);
        copyBlock(done);

        b.fall(init, iloop);
        b.fall(iloop, jloop);
        b.fall(jloop, zero);
        b.fall(zero, kloop);
        b.fall(kloop, mac);
        b.loopBack(mac, kloop);
        b.loopExit(kloop, storec);
        b.loopBack(storec, jloop);
        b.loopExit(jloop, ilatch);
        b.loopBack(ilatch, iloop);
        b.loopExit(iloop, done);
        return b.finish();
    }

    WorkloadMachineSpec
    machineSpec() const override
    {
        WorkloadMachineSpec spec;
        spec.available = true;
        for (const char *hdr : {"i_loop", "j_loop", "k_loop"})
            spec.loopBounds[hdr] = {0, kDim, 1};
        spec.inductionPorts["i_loop"] = "i";
        spec.inductionPorts["j_loop"] = "j";
        spec.inductionPorts["k_loop"] = "k";
        // Rows of C are independent: each (i, j) accumulation
        // reads only row i of A and all of B, writes only row i of
        // C, and the observed running sum resets per (i, j).  The
        // unroll pass may stripe i across replicas.
        spec.parallelLoops = {"i_loop"};
        spec.arrayBases["A"] = 0;
        spec.arrayBases["B"] = kDim2;
        spec.arrayBases["C"] = 2 * kDim2;
        spec.memoryImage = gemmInputs();
        StreamRecorder rec(
            {static_cast<std::size_t>(kDim2) * kDim});
        std::vector<Word> c = gemmGolden(rec, spec.memoryImage);
        spec.observePorts = {"sum"};
        spec.expectedOutputs = rec.take();
        spec.expectedMemory = {{"C", 2 * kDim2, std::move(c)}};
        return spec;
    }

    std::uint64_t
    runGolden(KernelRecorder &rec) const override
    {
        std::uint64_t sum = 0;
        for (const Word v : gemmGolden(rec, gemmInputs()))
            sum = sum * 31 +
                  static_cast<std::uint64_t>(static_cast<UWord>(v));
        return sum;
    }
};

} // namespace

const Workload &
gemmWorkload()
{
    static GemmWorkload instance;
    return instance;
}

} // namespace marionette

/**
 * @file
 * The three non-intensive control-flow baselines of Sec. 6.2:
 * Conv-1d (CO), Sigmoid (SI) and Gray Processing (GP) — "simple
 * single-layer loop applications, prepared as a fair comparison".
 * Each is one counted loop around a straight-line DFG; every
 * architecture should pipeline them equally well (Fig. 17's right
 * cluster), which is the control experiment showing Marionette's
 * features do not hurt regular kernels.
 */

#include <vector>

#include "ir/builder.h"
#include "sim/rng.h"
#include "workloads/kernels.h"

namespace marionette
{

namespace
{

/**
 * Common scaffold: init -> loop header -> body -> done, one element
 * per iteration.  @p Kernel supplies kN (the trip count),
 * inputs() (the memory image, "y" is stored after it) and
 * output(x, i) (element i's "y"); the scaffold runs that one golden
 * for both the trace and the machine's streams.  Kernel calls are
 * static, so each element costs no dispatch.
 */
template <class Kernel>
class SingleLoopWorkload : public Workload
{
  public:
    bool intensiveControlFlow() const override { return false; }

    WorkloadMachineSpec
    machineSpec() const override
    {
        WorkloadMachineSpec spec;
        spec.available = true;
        spec.loopBounds["loop"] = {0, Kernel::kN, 1};
        spec.inductionPorts["loop"] = "i";
        spec.memoryImage = Kernel::inputs();
        const Word y_base = static_cast<Word>(spec.memoryImage.size());
        spec.arrayBases["y"] = y_base;
        StreamRecorder rec({static_cast<std::size_t>(Kernel::kN)});
        std::vector<Word> ys(static_cast<std::size_t>(Kernel::kN));
        golden(rec, spec.memoryImage, ys);
        spec.observePorts = {"y"};
        spec.expectedOutputs = rec.take();
        spec.expectedMemory = {{"y", y_base, std::move(ys)}};
        return spec;
    }

    std::uint64_t
    runGolden(KernelRecorder &rec) const override
    {
        std::vector<Word> ys(static_cast<std::size_t>(Kernel::kN));
        return golden(rec, Kernel::inputs(), ys);
    }

  protected:
    enum Block : BlockId
    {
        bInit = 0,
        bLoop,
        bBody,
        bDone
    };

    Cdfg
    scaffold(const std::string &name,
             const std::function<void(Dfg &)> &build_body) const
    {
        CdfgBuilder b(name);
        BlockId init = b.addBlock("init");
        BlockId loop = b.addLoopHeader("loop");
        BlockId body = b.addBlock("body");
        BlockId done = b.addBlock("done");
        {
            Dfg &d = b.dfg(init);
            NodeId c = d.addNode(Opcode::Const, Operand::imm(0));
            d.addOutput("i", c);
        }
        {
            Dfg &d = b.dfg(loop);
            dfg_patterns::addCountedLoop(d, 0, 1, "n");
        }
        build_body(b.dfg(body));
        {
            Dfg &d = b.dfg(done);
            int x = d.addInput("x");
            NodeId c = d.addNode(Opcode::Copy, Operand::input(x));
            d.addOutput("x", c);
        }
        b.fall(init, loop);
        b.fall(loop, body);
        b.loopBack(body, loop);
        b.loopExit(loop, done);
        return b.finish();
    }

  private:
    /** The golden over @p x: element i's "y" is observed on port
     *  0 and stored in @p ys[i].  @return the checksum of the ys
     *  (folded in the loop, where it overlaps the trace hooks). */
    template <class Recorder>
    static std::uint64_t
    golden(Recorder &rec, const std::vector<Word> &x,
           std::vector<Word> &ys)
    {
        std::uint64_t sum = 0;
        rec.block(bInit);
        rec.round(bLoop);
        for (int i = 0; i < Kernel::kN; ++i) {
            rec.iteration(bLoop);
            rec.block(bBody);
            Word y = Kernel::output(x, i);
            rec.observe(0, y);
            ys[static_cast<std::size_t>(i)] = y;
            sum = sum * 31 +
                  static_cast<std::uint64_t>(static_cast<UWord>(y));
        }
        rec.block(bDone);
        return sum;
    }
};

// ---------------------------------------------------------------
// Conv-1d: 16384 samples, 8-tap FIR.
// ---------------------------------------------------------------

constexpr int kTaps = 8;

class Conv1dWorkload : public SingleLoopWorkload<Conv1dWorkload>
{
  public:
    static constexpr int kN = 16384;

    std::string name() const override { return "CO"; }
    std::string fullName() const override { return "Conv-1d"; }
    std::string sizeDesc() const override { return "16384"; }

    Cdfg
    buildCdfg() const override
    {
        return scaffold("conv1d", [](Dfg &d) {
            int i = d.addInput("i");
            NodeId acc = invalidNode;
            for (int t = 0; t < kTaps; ++t) {
                NodeId idx = d.addNode(Opcode::Add,
                                       Operand::input(i),
                                       Operand::imm(t));
                NodeId x = d.addNode(Opcode::Load,
                                     Operand::node(idx));
                if (acc == invalidNode) {
                    acc = d.addNode(Opcode::Mul, Operand::node(x),
                                    Operand::imm(3 + t));
                } else {
                    acc = d.addNode(Opcode::Mac, Operand::node(x),
                                    Operand::imm(3 + t),
                                    Operand::node(acc));
                }
            }
            d.addNode(Opcode::Store, Operand::input(i),
                      Operand::node(acc), Operand::none(), "y");
            d.addOutput("y", acc);
        });
    }

    /** kN + kTaps samples (the taps read past the last output). */
    static std::vector<Word>
    inputs()
    {
        Rng rng(0x5eed000b);
        std::vector<Word> x(static_cast<std::size_t>(kN + kTaps));
        for (Word &v : x)
            v = static_cast<Word>(rng.nextRange(-128, 127));
        return x;
    }

    static Word
    output(const std::vector<Word> &x, int i)
    {
        Word acc = 0;
        for (int t = 0; t < kTaps; ++t)
            acc += x[static_cast<std::size_t>(i + t)] * (3 + t);
        return acc;
    }
};

// ---------------------------------------------------------------
// Sigmoid: 2048 activations through the nonlinear-fitting unit.
// ---------------------------------------------------------------

class SigmoidWorkload : public SingleLoopWorkload<SigmoidWorkload>
{
  public:
    static constexpr int kN = 2048;

    std::string name() const override { return "SI"; }
    std::string fullName() const override { return "Sigmoid"; }
    std::string sizeDesc() const override { return "2048"; }

    Cdfg
    buildCdfg() const override
    {
        return scaffold("sigmoid", [](Dfg &d) {
            int i = d.addInput("i");
            NodeId x = d.addNode(Opcode::Load, Operand::input(i));
            NodeId y = d.addNode(Opcode::SigmoidFix,
                                 Operand::node(x));
            d.addNode(Opcode::Store, Operand::input(i),
                      Operand::node(y), Operand::none(), "y");
            d.addOutput("y", y);
        });
    }

    /** kN Q16 activations in [-6, 6]. */
    static std::vector<Word>
    inputs()
    {
        Rng rng(0x5eed000c);
        std::vector<Word> x(static_cast<std::size_t>(kN));
        for (Word &v : x)
            v = static_cast<Word>(rng.nextRange(-6 << 16, 6 << 16));
        return x;
    }

    static Word
    output(const std::vector<Word> &x, int i)
    {
        return evalOp(Opcode::SigmoidFix,
                      x[static_cast<std::size_t>(i)]);
    }
};

// ---------------------------------------------------------------
// Gray Processing: 16384 RGB pixels to luma.
// ---------------------------------------------------------------

class GrayWorkload : public SingleLoopWorkload<GrayWorkload>
{
  public:
    static constexpr int kN = 16384;

    std::string name() const override { return "GP"; }
    std::string fullName() const override
    { return "Gray Processing"; }
    std::string sizeDesc() const override { return "16384"; }

    Cdfg
    buildCdfg() const override
    {
        return scaffold("gray", [](Dfg &d) {
            int i = d.addInput("i");
            NodeId base = d.addNode(Opcode::Mul, Operand::input(i),
                                    Operand::imm(3));
            NodeId r = d.addNode(Opcode::Load, Operand::node(base));
            NodeId gi = d.addNode(Opcode::Add, Operand::node(base),
                                  Operand::imm(1));
            NodeId g = d.addNode(Opcode::Load, Operand::node(gi));
            NodeId bi = d.addNode(Opcode::Add, Operand::node(base),
                                  Operand::imm(2));
            NodeId bb2 = d.addNode(Opcode::Load, Operand::node(bi));
            NodeId acc = d.addNode(Opcode::Mul, Operand::node(r),
                                   Operand::imm(77));
            NodeId acc2 = d.addNode(Opcode::Mac, Operand::node(g),
                                    Operand::imm(150),
                                    Operand::node(acc));
            NodeId acc3 = d.addNode(Opcode::Mac, Operand::node(bb2),
                                    Operand::imm(29),
                                    Operand::node(acc2));
            NodeId y = d.addNode(Opcode::Shr, Operand::node(acc3),
                                 Operand::imm(8));
            d.addNode(Opcode::Store, Operand::input(i),
                      Operand::node(y), Operand::none(), "y");
            d.addOutput("y", y);
        });
    }

    /** kN interleaved 8-bit r, g, b triples. */
    static std::vector<Word>
    inputs()
    {
        Rng rng(0x5eed000d);
        std::vector<Word> rgb(static_cast<std::size_t>(3 * kN));
        for (Word &v : rgb)
            v = static_cast<Word>(rng.nextBounded(256));
        return rgb;
    }

    static Word
    output(const std::vector<Word> &rgb, int i)
    {
        const Word *p = rgb.data() + 3 * i;
        return (p[0] * 77 + p[1] * 150 + p[2] * 29) >> 8;
    }
};

} // namespace

const Workload &
conv1dWorkload()
{
    static Conv1dWorkload instance;
    return instance;
}

const Workload &
sigmoidWorkload()
{
    static SigmoidWorkload instance;
    return instance;
}

const Workload &
grayWorkload()
{
    static GrayWorkload instance;
    return instance;
}

} // namespace marionette

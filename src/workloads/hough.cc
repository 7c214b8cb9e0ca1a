/**
 * @file
 * Hough Transform (HT) — 120 x 180 image (HosNa suite).
 *
 * Line detection: every edge pixel votes across 180 theta bins.
 * The theta loop hangs *under a branch* (only edge pixels enter
 * it), making the branch sub-inner and the nest imperfect —
 * Table 1: sub-inner branch, imperfect nested loops.
 */

#include <cmath>
#include <vector>

#include "ir/builder.h"
#include "sim/rng.h"
#include "workloads/kernels.h"

namespace marionette
{

namespace
{

constexpr int kHeight = 120;
constexpr int kWidth = 180;
constexpr int kThetas = 180;
constexpr Word kThreshold = 128;

enum Block : BlockId
{
    bInit = 0,
    bYLoop,      // depth 1
    bXLoop,      // depth 2
    bPixelIf,    // if (img[y][x] > threshold)
    bThetaLoop,  // vote loop (depth 3, under the branch)
    bVote,       // rho = x cos + y sin; acc[theta][rho]++
    bSkip,
    bXLatch,
    bYLatch,
    bDone
};

/** One Hough run: its inputs and the vote array it leaves. */
struct HoughRun
{
    std::vector<Word> img;   ///< height x width pixels.
    std::vector<Word> cosT;  ///< Q15 cos per theta.
    std::vector<Word> sinT;  ///< Q15 sin per theta.
    std::vector<Word> acc;   ///< thetas x 2 rhoMax votes.
};

/** The Hough golden on a @p height x @p width synthetic image with
 *  @p thetas angle bins: draws the image, builds the trig tables
 *  and votes.  No port is observed; the machine checks @c acc. */
template <class Recorder>
HoughRun
houghGolden(Recorder &rec, int height, int width, int thetas)
{
    HoughRun r;
    Rng rng(0x5eed0005);
    // Synthetic image: mostly dark with a few bright lines
    // (about 10% edge pixels, the HosNa-like density).
    r.img.resize(static_cast<std::size_t>(height * width));
    for (int y = 0; y < height; ++y) {
        for (int x = 0; x < width; ++x) {
            bool line = (x + 2 * y) % 23 == 0 || (3 * x - y) % 31 == 0;
            Word noise = static_cast<Word>(rng.nextBounded(100));
            r.img[static_cast<std::size_t>(y * width + x)] =
                line ? 200 + noise % 56 : noise;
        }
    }
    // Q15 trig tables.
    r.cosT.resize(static_cast<std::size_t>(thetas));
    r.sinT.resize(static_cast<std::size_t>(thetas));
    for (int t = 0; t < thetas; ++t) {
        double a = 3.14159265358979 * t / thetas;
        r.cosT[static_cast<std::size_t>(t)] =
            static_cast<Word>(32767.0 * std::cos(a));
        r.sinT[static_cast<std::size_t>(t)] =
            static_cast<Word>(32767.0 * std::sin(a));
    }
    const int rho_max = width + height;
    r.acc.assign(static_cast<std::size_t>(thetas * 2 * rho_max), 0);

    rec.block(bInit);
    rec.round(bYLoop);
    for (int y = 0; y < height; ++y) {
        rec.iteration(bYLoop);
        rec.round(bXLoop);
        for (int x = 0; x < width; ++x) {
            rec.iteration(bXLoop);
            rec.block(bPixelIf);
            if (r.img[static_cast<std::size_t>(y * width + x)] >
                kThreshold) {
                rec.round(bThetaLoop);
                for (int t = 0; t < thetas; ++t) {
                    rec.iteration(bThetaLoop);
                    rec.block(bVote);
                    Word rho = static_cast<Word>(
                        (static_cast<std::int64_t>(x) *
                             r.cosT[static_cast<std::size_t>(t)] +
                         static_cast<std::int64_t>(y) *
                             r.sinT[static_cast<std::size_t>(t)]) >>
                        15);
                    int bin = t * 2 * rho_max + (rho + rho_max);
                    ++r.acc[static_cast<std::size_t>(bin)];
                }
            } else {
                rec.block(bSkip);
            }
            rec.block(bXLatch);
        }
        rec.block(bYLatch);
    }
    rec.block(bDone);
    return r;
}

class HoughWorkload : public Workload
{
  public:
    std::string name() const override { return "HT"; }
    std::string fullName() const override
    { return "Hough Transform"; }
    std::string sizeDesc() const override { return "120 x 180"; }

    Cdfg
    buildCdfg() const override
    {
        CdfgBuilder b("hough");
        BlockId init = b.addBlock("init");
        BlockId yloop = b.addLoopHeader("y_loop");
        BlockId xloop = b.addLoopHeader("x_loop");
        BlockId pif = b.addBranchBlock("pixel_if");
        BlockId theta = b.addLoopHeader("theta_loop");
        BlockId vote = b.addBlock("vote");
        BlockId skip = b.addBlock("skip");
        BlockId xlatch = b.addBlock("x_latch");
        BlockId ylatch = b.addBlock("y_latch");
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
            d.addOutput("y", c);
        }
        for (BlockId hdr : {yloop, xloop, theta}) {
            Dfg &d = b.dfg(hdr);
            dfg_patterns::addCountedLoop(d, 0, 1, "bound");
        }
        {   // load pixel, compare, branch.  The image width is a
            // live-in so the machine data can size the run.
            Dfg &d = b.dfg(pif);
            int y = d.addInput("y");
            int x = d.addInput("x");
            int iw = d.addInput("imgw");
            NodeId idx = d.addNode(Opcode::Mul, Operand::input(y),
                                   Operand::input(iw));
            NodeId idx2 = d.addNode(Opcode::Add, Operand::node(idx),
                                    Operand::input(x));
            NodeId px = d.addNode(Opcode::Load, Operand::node(idx2),
                                  Operand::none(), Operand::none(),
                                  "img");
            NodeId gt = d.addNode(Opcode::CmpGt, Operand::node(px),
                                  Operand::imm(kThreshold));
            d.addNode(Opcode::Branch, Operand::node(gt));
            d.addOutput("edge", gt);
        }
        {   // vote: rho = (x*cos[t] + y*sin[t]) >> 15;
            // acc[t][rho + rho_max]++.
            Dfg &d = b.dfg(vote);
            int x = d.addInput("x");
            int y = d.addInput("y");
            int t = d.addInput("theta");
            int bw = d.addInput("binw");
            int rm = d.addInput("rhomax");
            NodeId ct = d.addNode(Opcode::Load, Operand::input(t),
                                  Operand::none(), Operand::none(),
                                  "cos");
            NodeId st = d.addNode(Opcode::Load, Operand::input(t),
                                  Operand::none(), Operand::none(),
                                  "sin");
            NodeId xc = d.addNode(Opcode::Mul, Operand::input(x),
                                  Operand::node(ct));
            NodeId ys = d.addNode(Opcode::Mac, Operand::input(y),
                                  Operand::node(st),
                                  Operand::node(xc), "rho.q15");
            NodeId rho = d.addNode(Opcode::Sra, Operand::node(ys),
                                   Operand::imm(15));
            NodeId tb = d.addNode(Opcode::Mul, Operand::input(t),
                                  Operand::input(bw));
            NodeId b1 = d.addNode(Opcode::Add, Operand::node(tb),
                                  Operand::node(rho));
            NodeId bin = d.addNode(Opcode::Add, Operand::node(b1),
                                   Operand::input(rm),
                                   Operand::none(), "bin");
            NodeId cur = d.addNode(Opcode::Load, Operand::node(bin),
                                   Operand::none(), Operand::none(),
                                   "acc");
            NodeId inc = d.addNode(Opcode::Add, Operand::node(cur),
                                   Operand::imm(1));
            d.addNode(Opcode::Store, Operand::node(bin),
                      Operand::node(inc), Operand::none(), "acc");
            d.addOutput("rho", rho);
        }
        copyBlock(skip);
        copyBlock(xlatch);
        copyBlock(ylatch);
        copyBlock(done);

        b.fall(init, yloop);
        b.fall(yloop, xloop);
        b.fall(xloop, pif);
        b.branch(pif, theta, skip);
        b.fall(theta, vote);
        b.loopBack(vote, theta);
        b.loopExit(theta, xlatch);
        b.fall(skip, xlatch);
        b.loopBack(xlatch, xloop);
        b.loopExit(xloop, ylatch);
        b.loopBack(ylatch, yloop);
        b.loopExit(yloop, done);
        return b.finish();
    }

    WorkloadMachineSpec
    machineSpec() const override
    {
        // Reduced machine-run dimensions (the trace keeps the full
        // Table-5 image); same pixel statistics and Q15 vote
        // arithmetic.
        constexpr int mH = 40;
        constexpr int mW = 60;
        constexpr int mT = 60;
        constexpr int mRhoMax = mW + mH;
        constexpr Word base_img = 0;                   // mH x mW
        constexpr Word base_cos = mH * mW;             // mT
        constexpr Word base_sin = base_cos + mT;       // mT
        constexpr Word base_acc = base_sin + mT;       // mT x 2rho

        WorkloadMachineSpec spec;
        spec.available = true;
        spec.loopBounds["y_loop"] = {0, mH, 1};
        spec.loopBounds["x_loop"] = {0, mW, 1};
        spec.loopBounds["theta_loop"] = {0, mT, 1};
        spec.inductionPorts["y_loop"] = "y";
        spec.inductionPorts["x_loop"] = "x";
        spec.inductionPorts["theta_loop"] = "theta";
        spec.arrayBases["img"] = base_img;
        spec.arrayBases["cos"] = base_cos;
        spec.arrayBases["sin"] = base_sin;
        spec.arrayBases["acc"] = base_acc;
        spec.scalars["imgw"] = mW;
        spec.scalars["binw"] = 2 * mRhoMax;
        spec.scalars["rhomax"] = mRhoMax;

        StreamRecorder rec;
        HoughRun r = houghGolden(rec, mH, mW, mT);
        spec.memoryImage = std::move(r.img);
        spec.memoryImage.insert(spec.memoryImage.end(),
                                r.cosT.begin(), r.cosT.end());
        spec.memoryImage.insert(spec.memoryImage.end(),
                                r.sinT.begin(), r.sinT.end());
        spec.expectedMemory = {{"acc", base_acc, std::move(r.acc)}};
        return spec;
    }

    std::uint64_t
    runGolden(KernelRecorder &rec) const override
    {
        HoughRun r = houghGolden(rec, kHeight, kWidth, kThetas);
        std::uint64_t sum = 0;
        for (const Word v : r.acc)
            sum = sum * 31 +
                  static_cast<std::uint64_t>(static_cast<UWord>(v));
        return sum;
    }
};

} // namespace

const Workload &
houghWorkload()
{
    static HoughWorkload instance;
    return instance;
}

} // namespace marionette

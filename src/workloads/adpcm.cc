/**
 * @file
 * ADPCM Encode — 2000 bytes (MiBench IMA ADPCM).
 *
 * One sample loop whose body is a *chain of serial branches* (sign
 * handling, quantizer threshold, index clamping) — Table 1: serial
 * branches, no nested loops.  The branch chain is the reason TIA-
 * style per-token reconfiguration hurts here (Fig. 16: network-
 * dominated benchmark).
 */

#include <algorithm>
#include <iterator>
#include <vector>

#include "ir/builder.h"
#include "sim/rng.h"
#include "workloads/kernels.h"

namespace marionette
{

namespace
{

constexpr int kSamples = 2000;

const Word kStepTable[16] = {7,  8,  9,  10, 11,  12,  13,  14,
                             16, 17, 19, 21, 23,  25,  28,  31};
const Word kIndexTable[8] = {-1, -1, -1, -1, 2, 4, 6, 8};

enum Block : BlockId
{
    bInit = 0,
    bSampleLoop, // depth 1
    bPredict,    // diff = sample - predicted
    bSignIf,     // if (diff < 0)
    bNegate,     // diff = -diff, sign = 8
    bKeep,
    bQuant,      // delta = quantize(diff, step)
    bMagIf,      // if (delta >= 4)
    bMagHi,      // index += large step
    bMagLo,
    bClampIf,    // if (index out of range)
    bClampFix,
    bClampOk,
    bUpdate,     // predicted/step update + store nibble
    bDone
};

/** The 2000 input samples: a random walk, drawn once for trace
 *  and machine. */
std::vector<Word>
adpcmSamples()
{
    Rng rng(0x5eed0007);
    std::vector<Word> samples(static_cast<std::size_t>(kSamples));
    Word wave = 0;
    for (Word &s : samples) {
        wave += static_cast<Word>(rng.nextRange(-64, 64));
        s = wave;
    }
    return samples;
}

/** The ADPCM golden over the first kSamples words of @p samples,
 *  observing port 0 ("predicted") at every update and storing the
 *  nibble stream in @p nibbles.  @return the nibbles' checksum
 *  (folded in the loop, where it overlaps the trace hooks). */
template <class Recorder>
std::uint64_t
adpcmGolden(Recorder &rec, const std::vector<Word> &samples,
            std::vector<Word> &nibbles)
{
    rec.block(bInit);
    Word predicted = 0;
    int index = 0;
    std::uint64_t sum = 0;

    rec.round(bSampleLoop);
    for (int i = 0; i < kSamples; ++i) {
        rec.iteration(bSampleLoop);
        rec.block(bPredict);
        Word step = kStepTable[index];
        Word diff = samples[static_cast<std::size_t>(i)] - predicted;
        Word sign = 0;
        rec.block(bSignIf);
        if (diff < 0) {
            rec.block(bNegate);
            diff = -diff;
            sign = 8;
        } else {
            rec.block(bKeep);
        }
        rec.block(bQuant);
        Word delta =
            std::min<Word>(step == 0 ? 7 : diff * 4 / step, 7);
        rec.block(bMagIf);
        if (delta >= 4) {
            rec.block(bMagHi);
            index += kIndexTable[delta & 7];
        } else {
            rec.block(bMagLo);
            index -= 1;
        }
        rec.block(bClampIf);
        if (index < 0 || index > 15) {
            rec.block(bClampFix);
            index = std::clamp(index, 0, 15);
        } else {
            rec.block(bClampOk);
        }
        rec.block(bUpdate);
        Word vpdiff = delta * step / 4;
        predicted += sign ? -vpdiff : vpdiff;
        rec.observe(0, predicted);
        Word nibble = sign | delta;
        nibbles[static_cast<std::size_t>(i)] = nibble;
        sum = sum * 17 +
              static_cast<std::uint64_t>(static_cast<UWord>(nibble));
    }
    rec.block(bDone);
    return sum;
}

class AdpcmWorkload : public Workload
{
  public:
    std::string name() const override { return "ADPCM"; }
    std::string fullName() const override
    { return "ADPCM Encode"; }
    std::string sizeDesc() const override { return "2000 bytes"; }

    Cdfg
    buildCdfg() const override
    {
        CdfgBuilder b("adpcm");
        BlockId init = b.addBlock("init");
        BlockId loop = b.addLoopHeader("sample_loop");
        BlockId predict = b.addBlock("predict");
        BlockId signif = b.addBranchBlock("sign_if");
        BlockId neg = b.addBlock("negate");
        BlockId keep = b.addBlock("keep");
        BlockId quant = b.addBlock("quant");
        BlockId magif = b.addBranchBlock("mag_if");
        BlockId maghi = b.addBlock("mag_hi");
        BlockId maglo = b.addBlock("mag_lo");
        BlockId clampif = b.addBranchBlock("clamp_if");
        BlockId clampfix = b.addBlock("clamp_fix");
        BlockId clampok = b.addBlock("clamp_ok");
        BlockId update = b.addBlock("update");
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
            d.addOutput("predicted", c);
        }
        {
            Dfg &d = b.dfg(loop);
            dfg_patterns::addCountedLoop(d, 0, 1, "n");
        }
        {   // step = stepTable[index]; diff = sample - predicted.
            Dfg &d = b.dfg(predict);
            int i = d.addInput("i");
            int pred = d.addInput("predicted");
            int idx = d.addInput("index");
            NodeId st = d.addNode(Opcode::Load, Operand::input(idx),
                                  Operand::none(), Operand::none(),
                                  "stepTable");
            NodeId s = d.addNode(Opcode::Load, Operand::input(i),
                                 Operand::none(), Operand::none(),
                                 "sample");
            NodeId diff = d.addNode(Opcode::Sub, Operand::node(s),
                                    Operand::input(pred));
            d.addOutput("step", st);
            d.addOutput("diff", diff);
        }
        {
            Dfg &d = b.dfg(signif);
            int diff = d.addInput("diff");
            NodeId lt = d.addNode(Opcode::CmpLt,
                                  Operand::input(diff),
                                  Operand::imm(0));
            d.addNode(Opcode::Branch, Operand::node(lt));
            d.addOutput("neg", lt);
        }
        {
            Dfg &d = b.dfg(neg);
            int diff = d.addInput("diff");
            NodeId nd = d.addNode(Opcode::Neg,
                                  Operand::input(diff));
            NodeId sign = d.addNode(Opcode::Const,
                                    Operand::imm(8));
            d.addOutput("diff", nd);
            d.addOutput("sign", sign);
        }
        copyBlock(keep);
        {   // delta = min(diff * 4 / step, 7).
            Dfg &d = b.dfg(quant);
            int diff = d.addInput("diff");
            int step = d.addInput("step");
            NodeId d4 = d.addNode(Opcode::Shl, Operand::input(diff),
                                  Operand::imm(2));
            NodeId q = d.addNode(Opcode::Div, Operand::node(d4),
                                 Operand::input(step));
            NodeId delta = d.addNode(Opcode::Min, Operand::node(q),
                                     Operand::imm(7));
            d.addOutput("delta", delta);
        }
        {
            Dfg &d = b.dfg(magif);
            int delta = d.addInput("delta");
            NodeId ge = d.addNode(Opcode::CmpGe,
                                  Operand::input(delta),
                                  Operand::imm(4));
            d.addNode(Opcode::Branch, Operand::node(ge));
            d.addOutput("hi", ge);
        }
        {
            Dfg &d = b.dfg(maghi);
            int idx = d.addInput("index");
            int delta = d.addInput("delta");
            NodeId adj = d.addNode(Opcode::Load,
                                   Operand::input(delta),
                                   Operand::none(), Operand::none(),
                                   "indexTable");
            NodeId ni = d.addNode(Opcode::Add, Operand::input(idx),
                                  Operand::node(adj));
            d.addOutput("index", ni);
        }
        {
            Dfg &d = b.dfg(maglo);
            int idx = d.addInput("index");
            NodeId ni = d.addNode(Opcode::Sub, Operand::input(idx),
                                  Operand::imm(1));
            d.addOutput("index", ni);
        }
        {
            Dfg &d = b.dfg(clampif);
            int idx = d.addInput("index");
            NodeId lt = d.addNode(Opcode::CmpLt,
                                  Operand::input(idx),
                                  Operand::imm(0));
            NodeId gt = d.addNode(Opcode::CmpGt,
                                  Operand::input(idx),
                                  Operand::imm(15));
            NodeId bad = d.addNode(Opcode::Or, Operand::node(lt),
                                   Operand::node(gt));
            d.addNode(Opcode::Branch, Operand::node(bad));
            d.addOutput("bad", bad);
        }
        {
            Dfg &d = b.dfg(clampfix);
            int idx = d.addInput("index");
            NodeId lo = d.addNode(Opcode::Max, Operand::input(idx),
                                  Operand::imm(0));
            NodeId hi = d.addNode(Opcode::Min, Operand::node(lo),
                                  Operand::imm(15));
            d.addOutput("index", hi);
        }
        copyBlock(clampok);
        {   // predicted += sign ? -vpdiff : vpdiff; store nibble.
            Dfg &d = b.dfg(update);
            int pred = d.addInput("predicted");
            int delta = d.addInput("delta");
            int sign = d.addInput("sign");
            int step = d.addInput("step");
            int i = d.addInput("i");
            NodeId vp = d.addNode(Opcode::Mul, Operand::input(delta),
                                  Operand::input(step));
            NodeId vp2 = d.addNode(Opcode::Sra, Operand::node(vp),
                                   Operand::imm(2));
            NodeId nvp = d.addNode(Opcode::Neg, Operand::node(vp2));
            NodeId adj = d.addNode(Opcode::Select,
                                   Operand::input(sign),
                                   Operand::node(nvp),
                                   Operand::node(vp2));
            NodeId np = d.addNode(Opcode::Add, Operand::input(pred),
                                  Operand::node(adj));
            NodeId nib = d.addNode(Opcode::Or, Operand::input(sign),
                                   Operand::input(delta));
            d.addNode(Opcode::Store, Operand::input(i),
                      Operand::node(nib), Operand::none(),
                      "nibble");
            d.addOutput("predicted", np);
        }
        copyBlock(done);

        b.fall(init, loop);
        b.fall(loop, predict);
        b.fall(predict, signif);
        b.branch(signif, neg, keep);
        b.fall(neg, quant);
        b.fall(keep, quant);
        b.fall(quant, magif);
        b.branch(magif, maghi, maglo);
        b.fall(maghi, clampif);
        b.fall(maglo, clampif);
        b.branch(clampif, clampfix, clampok);
        b.fall(clampfix, update);
        b.fall(clampok, update);
        b.loopBack(update, loop);
        b.loopExit(loop, done);
        return b.finish();
    }

    WorkloadMachineSpec
    machineSpec() const override
    {
        WorkloadMachineSpec spec;
        spec.available = true;
        spec.loopBounds["sample_loop"] = {0, kSamples, 1};
        spec.inductionPorts["sample_loop"] = "i";
        const Word step_base = kSamples;
        const Word index_base = step_base + 16;
        const Word nibble_base = index_base + 8;
        spec.arrayBases["stepTable"] = step_base;
        spec.arrayBases["indexTable"] = index_base;
        spec.arrayBases["nibble"] = nibble_base;
        // "sign" is defined only on the negative branch path; the
        // original source zero-initializes it per iteration.
        // "index" seeds the loop-carried quantizer state.
        spec.scalars["sign"] = 0;
        spec.scalars["index"] = 0;

        spec.memoryImage = adpcmSamples();
        spec.memoryImage.insert(spec.memoryImage.end(),
                                std::begin(kStepTable),
                                std::end(kStepTable));
        spec.memoryImage.insert(spec.memoryImage.end(),
                                std::begin(kIndexTable),
                                std::end(kIndexTable));

        StreamRecorder rec({static_cast<std::size_t>(kSamples)});
        std::vector<Word> nibbles(static_cast<std::size_t>(kSamples));
        adpcmGolden(rec, spec.memoryImage, nibbles);
        spec.observePorts = {"predicted"};
        spec.expectedOutputs = rec.take();
        spec.expectedMemory = {
            {"nibble", nibble_base, std::move(nibbles)}};
        return spec;
    }

    std::uint64_t
    runGolden(KernelRecorder &rec) const override
    {
        std::vector<Word> nibbles(static_cast<std::size_t>(kSamples));
        return adpcmGolden(rec, adpcmSamples(), nibbles);
    }
};

} // namespace

const Workload &
adpcmWorkload()
{
    static AdpcmWorkload instance;
    return instance;
}

} // namespace marionette

/**
 * @file
 * CRC-32 (CRC) — 64 bytes (MiBench-derived, bitwise).
 *
 * Two serial loops at the top level (message preparation, then the
 * main byte loop) with the polynomial-reduction branch in the
 * innermost bit loop.  Table 1: innermost branch, imperfect nested
 * loops, serial loops.  Largely unpipelineable: every bit iteration
 * depends on the previous one (Sec. 7.2: control-transfer overhead
 * dominates, which is why the control network helps CRC most).
 */

#include <vector>

#include "ir/builder.h"
#include "sim/rng.h"
#include "workloads/kernels.h"

namespace marionette
{

namespace
{

constexpr int kBytes = 64;
constexpr UWord kPoly = 0xedb88320u;

enum Block : BlockId
{
    bInit = 0,
    bPrepLoop,  // message prep (serial loop 1, depth 1)
    bPrepBody,
    bByteLoop,  // main loop (serial loop 2, depth 1)
    bXorIn,     // crc ^= byte
    bBitLoop,   // 8 bit steps (depth 2)
    bMsbIf,     // if (crc & 1)
    bPolyStep,  // crc = (crc >> 1) ^ poly
    bShiftStep, // crc = crc >> 1
    bBitLatch,
    bByteLatch,
    bDone
};

/** The 64 message bytes, drawn once for trace and machine. */
std::vector<Word>
crcMessage()
{
    Rng rng(0x5eed0006);
    std::vector<Word> msg(static_cast<std::size_t>(kBytes));
    for (Word &v : msg)
        v = static_cast<Word>(rng.nextBounded(256));
    return msg;
}

/** The CRC golden: salts @p msg in place (the prep loop's stores),
 *  then folds it in bit by bit, observing port 0 ("crc") after
 *  every polynomial/shift step.  @return the CRC register before
 *  the final inversion. */
template <class Recorder>
UWord
crcGolden(Recorder &rec, std::vector<Word> &msg)
{
    rec.block(bInit);
    rec.round(bPrepLoop);
    for (int i = 0; i < kBytes; ++i) {
        rec.iteration(bPrepLoop);
        rec.block(bPrepBody);
        msg[static_cast<std::size_t>(i)] ^= 0x5a;
    }

    UWord crc = 0xffffffffu;
    rec.round(bByteLoop);
    for (int i = 0; i < kBytes; ++i) {
        rec.iteration(bByteLoop);
        rec.block(bXorIn);
        crc ^= static_cast<UWord>(msg[static_cast<std::size_t>(i)]);
        rec.round(bBitLoop);
        for (int k = 0; k < 8; ++k) {
            rec.iteration(bBitLoop);
            rec.block(bMsbIf);
            if (crc & 1u) {
                rec.block(bPolyStep);
                crc = (crc >> 1) ^ kPoly;
            } else {
                rec.block(bShiftStep);
                crc >>= 1;
            }
            rec.observe(0, static_cast<Word>(crc));
            rec.block(bBitLatch);
        }
        rec.block(bByteLatch);
    }
    rec.block(bDone);
    return crc;
}

class CrcWorkload : public Workload
{
  public:
    std::string name() const override { return "CRC"; }
    std::string fullName() const override { return "CRC"; }
    std::string sizeDesc() const override { return "64 bytes"; }

    Cdfg
    buildCdfg() const override
    {
        CdfgBuilder b("crc");
        BlockId init = b.addBlock("init");
        BlockId prep = b.addLoopHeader("prep_loop");
        BlockId prepb = b.addBlock("prep_body");
        BlockId byte = b.addLoopHeader("byte_loop");
        BlockId xorin = b.addBlock("xor_in");
        BlockId bit = b.addLoopHeader("bit_loop");
        BlockId msbif = b.addBranchBlock("msb_if");
        BlockId poly = b.addBlock("poly_step");
        BlockId shift = b.addBlock("shift_step");
        BlockId blatch = b.addBlock("bit_latch");
        BlockId bylatch = b.addBlock("byte_latch");
        BlockId done = b.addBlock("done");

        auto copyBlock = [&](BlockId id) {
            Dfg &d = b.dfg(id);
            int x = d.addInput("x");
            NodeId c = d.addNode(Opcode::Copy, Operand::input(x));
            d.addOutput("x", c);
        };

        {
            Dfg &d = b.dfg(init);
            NodeId c = d.addNode(Opcode::Const,
                                 Operand::imm(-1)); // 0xffffffff
            d.addOutput("crc", c);
        }
        for (BlockId hdr : {prep, byte, bit}) {
            Dfg &d = b.dfg(hdr);
            dfg_patterns::addCountedLoop(d, 0, 1, "bound");
        }
        {   // prep: msg[i] = raw[i] ^ salt.
            Dfg &d = b.dfg(prepb);
            int i = d.addInput("i");
            NodeId v = d.addNode(Opcode::Load, Operand::input(i));
            NodeId x = d.addNode(Opcode::Xor, Operand::node(v),
                                 Operand::imm(0x5a));
            d.addNode(Opcode::Store, Operand::input(i),
                      Operand::node(x));
            d.addOutput("x", x);
        }
        {   // crc ^= msg[i].
            Dfg &d = b.dfg(xorin);
            int i = d.addInput("i");
            int crc = d.addInput("crc");
            NodeId v = d.addNode(Opcode::Load, Operand::input(i));
            NodeId x = d.addNode(Opcode::Xor, Operand::input(crc),
                                 Operand::node(v));
            d.addOutput("crc", x);
        }
        {   // if (crc & 1).
            Dfg &d = b.dfg(msbif);
            int crc = d.addInput("crc");
            NodeId lsb = d.addNode(Opcode::And, Operand::input(crc),
                                   Operand::imm(1));
            d.addNode(Opcode::Branch, Operand::node(lsb));
            d.addOutput("lsb", lsb);
        }
        {   // crc = (crc >> 1) ^ poly.
            Dfg &d = b.dfg(poly);
            int crc = d.addInput("crc");
            NodeId sh = d.addNode(Opcode::Shr, Operand::input(crc),
                                  Operand::imm(1));
            NodeId x = d.addNode(Opcode::Xor, Operand::node(sh),
                                 Operand::imm(
                                     static_cast<Word>(kPoly)));
            d.addOutput("crc", x);
        }
        {   // crc = crc >> 1.
            Dfg &d = b.dfg(shift);
            int crc = d.addInput("crc");
            NodeId sh = d.addNode(Opcode::Shr, Operand::input(crc),
                                  Operand::imm(1));
            d.addOutput("crc", sh);
        }
        copyBlock(blatch);
        copyBlock(bylatch);
        copyBlock(done);

        b.fall(init, prep);
        b.fall(prep, prepb);
        b.loopBack(prepb, prep);
        b.loopExit(prep, byte);
        b.fall(byte, xorin);
        b.fall(xorin, bit);
        b.fall(bit, msbif);
        b.branch(msbif, poly, shift);
        b.fall(poly, blatch);
        b.fall(shift, blatch);
        b.loopBack(blatch, bit);
        b.loopExit(bit, bylatch);
        b.loopBack(bylatch, byte);
        b.loopExit(byte, done);
        return b.finish();
    }

    WorkloadMachineSpec
    machineSpec() const override
    {
        WorkloadMachineSpec spec;
        spec.available = true;
        spec.loopBounds["prep_loop"] = {0, kBytes, 1};
        spec.loopBounds["byte_loop"] = {0, kBytes, 1};
        spec.loopBounds["bit_loop"] = {0, 8, 1};
        spec.inductionPorts["prep_loop"] = "i";
        spec.inductionPorts["byte_loop"] = "i";
        spec.memoryImage = crcMessage();
        // The salted message the prep phase must leave in memory.
        std::vector<Word> msg = spec.memoryImage;
        StreamRecorder rec({static_cast<std::size_t>(kBytes) * 8});
        crcGolden(rec, msg);
        spec.observePorts = {"crc"};
        spec.expectedOutputs = rec.take();
        spec.expectedMemory = {{"msg", 0, std::move(msg)}};
        return spec;
    }

    std::uint64_t
    runGolden(KernelRecorder &rec) const override
    {
        std::vector<Word> msg = crcMessage();
        return ~crcGolden(rec, msg);
    }
};

} // namespace

const Workload &
crcWorkload()
{
    static CrcWorkload instance;
    return instance;
}

} // namespace marionette

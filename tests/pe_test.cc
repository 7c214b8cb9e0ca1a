/**
 * @file
 * PE microarchitecture tests: the two-phase Control Flow Trigger,
 * data-flow firing semantics, the three Control Flow Sender modes
 * (Fig. 7a), proactive configuration, and lockstep gating.
 */

#include <gtest/gtest.h>

#include <deque>
#include <map>

#include "pe/control_trigger.h"
#include "pe/pe.h"

namespace marionette
{
namespace
{

/** Permissive fabric stub with observable memory and FIFOs. */
class FakeFabric : public FabricIface
{
  public:
    bool dataCredit(PeId, int) override { return creditOk; }
    void claimDataCredit(PeId, int) override { ++claims; }
    bool memPortAvailable(Word) override { return memOk; }
    Word memRead(Word addr) override { return memory[addr]; }
    void
    memWrite(Word addr, Word value) override
    {
        memory[addr] = value;
    }
    bool
    fifoHasData(int fifo) override
    {
        return !fifos[fifo].empty();
    }
    Word
    fifoPop(int fifo) override
    {
        Word v = fifos[fifo].front();
        fifos[fifo].pop_front();
        return v;
    }
    bool fifoHasSpace(int) override { return fifoSpaceOk; }
    void claimFifoSlot(int) override {}

    bool creditOk = true;
    bool memOk = true;
    bool fifoSpaceOk = true;
    int claims = 0;
    std::map<Word, Word> memory;
    std::map<int, std::deque<Word>> fifos;
};

MachineConfig
testConfig()
{
    MachineConfig c;
    return c;
}

/** One tick's result. */
PeTickResult
tickOnce(Pe &pe, FakeFabric &fabric, Cycle now)
{
    PeTickResult r;
    pe.tick(now, fabric, r);
    return r;
}

/** Run ticks until the PE goes quiet, collecting results. */
std::vector<PeTickResult>
runTicks(Pe &pe, FakeFabric &fabric, int cycles, Cycle start = 0)
{
    std::vector<PeTickResult> out;
    for (int t = 0; t < cycles; ++t)
        out.push_back(
            tickOnce(pe, fabric, start + static_cast<Cycle>(t)));
    return out;
}

TEST(Trigger, SustainedAddressIsFree)
{
    StatGroup stats("t");
    ControlFlowTrigger trig(1);
    trig.forceConfigure(3);
    EXPECT_FALSE(trig.checkPhase(0, 3, stats));
    EXPECT_EQ(stats.value("ctrl_sustained"), 1u);
    EXPECT_EQ(stats.value("config_switches"), 0u);
}

TEST(Trigger, FreshAddressTakesConfigLatency)
{
    StatGroup stats("t");
    ControlFlowTrigger trig(2);
    EXPECT_TRUE(trig.checkPhase(0, 5, stats));
    EXPECT_EQ(trig.applyPhase(0), invalidInstr);
    EXPECT_EQ(trig.applyPhase(1), invalidInstr);
    EXPECT_EQ(trig.applyPhase(2), 5);
    EXPECT_EQ(trig.currentAddr(), 5);
}

TEST(Trigger, PendingAddressAbsorbsRepeat)
{
    StatGroup stats("t");
    ControlFlowTrigger trig(3);
    trig.checkPhase(0, 7, stats);
    EXPECT_FALSE(trig.checkPhase(1, 7, stats));
    EXPECT_EQ(stats.value("config_switches"), 1u);
}

TEST(Channel, PushPopAndSpace)
{
    InputChannel ch(4);
    EXPECT_EQ(ch.space(), 4);
    ch.push(1);
    ch.push(2);
    EXPECT_EQ(ch.space(), 2);
    EXPECT_EQ(ch.front(), 1);
    EXPECT_EQ(ch.pop(), 1);
    EXPECT_EQ(ch.pop(), 2);
    EXPECT_TRUE(ch.empty());

    // Uneven fill and drain rounds walk the head past the ring's end
    // many times; a plain deque is the model.
    for (int depth : {1, 4, 8, 16}) {
        InputChannel ring(depth);
        std::deque<Word> model;
        Word next = 1;
        for (int round = 0; round < 6 * depth; ++round) {
            for (int k = 0; k <= round % depth && !ring.full(); ++k) {
                ring.push(next);
                model.push_back(next++);
            }
            const int held = static_cast<int>(model.size());
            EXPECT_EQ(ring.occupancy(), held) << depth;
            EXPECT_EQ(ring.space(), depth - held) << depth;
            EXPECT_EQ(ring.full(), held == depth) << depth;
            for (int k = 0; k <= (3 * round) % depth && !model.empty();
                 ++k) {
                EXPECT_EQ(ring.front(), model.front()) << depth;
                EXPECT_EQ(ring.pop(), model.front()) << depth;
                model.pop_front();
            }
            EXPECT_EQ(ring.contents(),
                      std::vector<Word>(model.begin(), model.end()))
                << depth;
        }
        EXPECT_GT(next, 3 * depth); // the head wrapped.
    }
}

TEST(Channel, CorruptFrontAfterWrapFlipsOldestWord)
{
    InputChannel ch(4);
    for (Word w : {1, 2, 3})
        ch.push(w);
    ch.pop();
    ch.pop();
    ch.push(4);
    ch.push(5); // lands in slot 0: the ring wrapped.
    EXPECT_EQ(ch.pop(), 3);
    ch.corruptFront(0x100); // the oldest word, 4, in the last slot.
    EXPECT_EQ(ch.contents(), (std::vector<Word>{4 ^ 0x100, 5}));
    EXPECT_EQ(ch.pop(), 4 ^ 0x100);
    ch.corruptFront(0x1); // the head itself wrapped to slot 0.
    EXPECT_EQ(ch.pop(), 5 ^ 0x1);
    ch.corruptFront(0x1); // empty: no-op.
    EXPECT_TRUE(ch.empty());
}

TEST(Channel, SaveRestoreOfWrappedRingKeepsOrder)
{
    EXPECT_EQ(InputChannel(8).contents().capacity(), 0u)
        << "an empty channel's capture allocates nothing";
    InputChannel ch(8);
    for (Word w = 0; w < 7; ++w)
        ch.push(w);
    for (int k = 0; k < 6; ++k)
        ch.pop();
    for (Word w = 7; w < 11; ++w)
        ch.push(w); // 8, 9 and 10 wrap to slots 0-2.
    const std::vector<Word> saved = ch.contents();
    ASSERT_EQ(saved, (std::vector<Word>{6, 7, 8, 9, 10}));

    InputChannel other(8);
    other.push(-1); // replaced by the restore.
    other.restore(saved);
    ch.push(11);
    ch.restore(saved); // over its own, differently placed words.
    for (InputChannel *c : {&ch, &other}) {
        EXPECT_EQ(c->occupancy(), 5);
        for (Word w = 11; w < 14; ++w)
            c->push(w); // fills to depth again.
        EXPECT_TRUE(c->full());
        for (Word w = 6; w < 14; ++w)
            EXPECT_EQ(c->pop(), w);
    }
}

TEST(ChannelDeath, OverflowPanics)
{
    InputChannel ch(1);
    ch.push(1);
    EXPECT_DEATH(ch.push(2), "overflow");
}

PeProgram
singleInstr(const Instruction &in, InstrAddr entry = 0)
{
    PeProgram p;
    p.pe = 0;
    p.instrs.push_back(in);
    p.entry = entry;
    return p;
}

TEST(PeFiring, AluFiresWhenOperandsReady)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Add;
    in.a = OperandSel::channel(0);
    in.b = OperandSel::immediate(10);
    in.dests = {DestSel::toPe(1, 0)};
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);

    FakeFabric fabric;
    auto r0 = runTicks(pe, fabric, 2);
    EXPECT_TRUE(r0[0].dataSends.empty()); // no operand yet.

    pe.acceptData(0, 5);
    auto r1 = runTicks(pe, fabric, 4, 2);
    // Result 15 appears after executeLatency (2 cycles).
    bool delivered = false;
    for (const auto &r : r1)
        for (const DataSend &s : r.dataSends) {
            EXPECT_EQ(s.value, 15);
            EXPECT_EQ(s.dstPe, 1);
            delivered = true;
        }
    EXPECT_TRUE(delivered);
    EXPECT_EQ(pe.fires(), 1u);
}

TEST(PeFiring, ExecuteLatencyIsHonored)
{
    MachineConfig config = testConfig();
    config.executeLatency = 3;
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Copy;
    in.a = OperandSel::channel(0);
    in.dests = {DestSel::toPe(1, 0)};
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);
    pe.acceptData(0, 9);

    FakeFabric fabric;
    // Config applies at t=1, issue at t=1, completes t=4.
    auto results = runTicks(pe, fabric, 6);
    for (int t = 0; t <= 3; ++t)
        EXPECT_TRUE(results[static_cast<std::size_t>(t)]
                        .dataSends.empty())
            << "t=" << t;
    EXPECT_FALSE(results[4].dataSends.empty());
}

TEST(PeFiring, NoCreditBlocksIssue)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Copy;
    in.a = OperandSel::channel(0);
    in.dests = {DestSel::toPe(1, 0)};
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);
    pe.acceptData(0, 1);

    FakeFabric fabric;
    fabric.creditOk = false;
    runTicks(pe, fabric, 4);
    EXPECT_EQ(pe.fires(), 0u);
    fabric.creditOk = true;
    runTicks(pe, fabric, 2, 4);
    EXPECT_EQ(pe.fires(), 1u);
}

TEST(PeFiring, LoadReadsMemoryAtIssue)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Load;
    in.a = OperandSel::channel(0);
    in.memBase = 100;
    in.dests = {DestSel::toPe(1, 0)};
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);

    FakeFabric fabric;
    fabric.memory[105] = 777;
    pe.acceptData(0, 5);
    auto results = runTicks(pe, fabric, 5);
    bool got = false;
    for (const auto &r : results)
        for (const DataSend &s : r.dataSends) {
            EXPECT_EQ(s.value, 777);
            got = true;
        }
    EXPECT_TRUE(got);
}

TEST(PeFiring, StoreWritesAtIssue)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Store;
    in.a = OperandSel::channel(0);
    in.b = OperandSel::channel(1);
    in.memBase = 50;
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);
    pe.acceptData(0, 3);
    pe.acceptData(1, -9);

    FakeFabric fabric;
    runTicks(pe, fabric, 3);
    EXPECT_EQ(fabric.memory[53], -9);
}

TEST(PeFiring, MemPortStallRetries)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Store;
    in.a = OperandSel::channel(0);
    in.b = OperandSel::immediate(1);
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);
    pe.acceptData(0, 7);

    FakeFabric fabric;
    fabric.memOk = false;
    runTicks(pe, fabric, 3);
    EXPECT_EQ(pe.fires(), 0u);
    fabric.memOk = true;
    runTicks(pe, fabric, 2, 3);
    EXPECT_EQ(fabric.memory[7], 1);
}

TEST(PeFiring, AlsoPopDiscardsInactiveLaneOperand)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Copy;
    in.a = OperandSel::channel(0);
    in.alsoPop = {1};
    in.dests = {DestSel::toPe(1, 0)};
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);
    pe.acceptData(0, 1);
    FakeFabric fabric;
    runTicks(pe, fabric, 3);
    EXPECT_EQ(pe.fires(), 0u); // waits for the discard channel too.
    pe.acceptData(1, 2);
    runTicks(pe, fabric, 3, 3);
    EXPECT_EQ(pe.fires(), 1u);
    EXPECT_EQ(pe.channelSpace(1), 8); // discarded.
}

TEST(PeBranch, SendsChosenAddressAfterResolve)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::BranchOp;
    in.op = Opcode::CmpGt;
    in.a = OperandSel::channel(0);
    in.b = OperandSel::immediate(10);
    in.takenAddr = 1;
    in.notTakenAddr = 2;
    in.ctrlDests = {4};
    PeProgram prog = singleInstr(in);
    // Targets must exist for program-load validation elsewhere;
    // the PE itself only needs the branch slot.
    pe.loadProgram(prog);
    pe.acceptControl(0, 0);

    FakeFabric fabric;
    pe.acceptData(0, 50); // 50 > 10 -> taken.
    auto results = runTicks(pe, fabric, 4);
    InstrAddr sent = invalidInstr;
    for (const auto &r : results)
        for (const CtrlSend &s : r.ctrlSends)
            sent = s.addr;
    EXPECT_EQ(sent, 1);

    pe.acceptData(0, 3); // not taken.
    results = runTicks(pe, fabric, 4, 4);
    for (const auto &r : results)
        for (const CtrlSend &s : r.ctrlSends)
            sent = s.addr;
    EXPECT_EQ(sent, 2);
}

TEST(PeLoop, ImmediateBoundsGenerateOnce)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::LoopOp;
    in.op = Opcode::Loop;
    in.loopStart = 0;
    in.loopBound = 5;
    in.loopStep = 1;
    in.pipelineII = 1;
    in.dests = {DestSel::toPe(1, 0)};
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);

    FakeFabric fabric;
    auto results = runTicks(pe, fabric, 20);
    std::vector<Word> emitted;
    for (const auto &r : results)
        for (const DataSend &s : r.dataSends)
            emitted.push_back(s.value);
    EXPECT_EQ(emitted, (std::vector<Word>{0, 1, 2, 3, 4}));
    // One round only: no regeneration afterwards.
    EXPECT_EQ(pe.stats().value("loop_rounds"), 1u);
}

TEST(PeLoop, PipelineIISpacesEmissions)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::LoopOp;
    in.op = Opcode::Loop;
    in.loopStart = 0;
    in.loopBound = 3;
    in.pipelineII = 3;
    in.dests = {DestSel::toPe(1, 0)};
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);

    FakeFabric fabric;
    std::vector<int> emit_cycles;
    for (int t = 0; t < 15; ++t) {
        auto r = tickOnce(pe, fabric, static_cast<Cycle>(t));
        if (!r.dataSends.empty())
            emit_cycles.push_back(t);
    }
    ASSERT_EQ(emit_cycles.size(), 3u);
    EXPECT_EQ(emit_cycles[1] - emit_cycles[0], 3);
    EXPECT_EQ(emit_cycles[2] - emit_cycles[1], 3);
}

TEST(PeLoop, FifoFedRoundsRunPerEntry)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::LoopOp;
    in.op = Opcode::Loop;
    in.startFifo = 0;
    in.boundFifo = 1;
    in.pipelineII = 1;
    in.dests = {DestSel::toPe(1, 0)};
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);

    FakeFabric fabric;
    fabric.fifos[0] = {2, 10};
    fabric.fifos[1] = {5, 12};
    auto results = runTicks(pe, fabric, 20);
    std::vector<Word> emitted;
    for (const auto &r : results)
        for (const DataSend &s : r.dataSends)
            emitted.push_back(s.value);
    EXPECT_EQ(emitted, (std::vector<Word>{2, 3, 4, 10, 11}));
    EXPECT_EQ(pe.stats().value("loop_rounds"), 2u);
}

TEST(PeLoop, EmptyRoundEmitsNothing)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::LoopOp;
    in.op = Opcode::Loop;
    in.startFifo = 0;
    in.boundFifo = 1;
    in.dests = {DestSel::toPe(1, 0)};
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);

    FakeFabric fabric;
    fabric.fifos[0] = {7};
    fabric.fifos[1] = {7}; // start == bound: zero iterations.
    auto results = runTicks(pe, fabric, 10);
    for (const auto &r : results)
        EXPECT_TRUE(r.dataSends.empty());
}

TEST(PeProactive, EmitOnConfigurationWhenEnabled)
{
    MachineConfig config = testConfig();
    config.features.proactiveConfig = true;
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Copy;
    in.a = OperandSel::channel(0);
    in.emitAddr = 7;
    in.ctrlDests = {2};
    PeProgram prog;
    prog.pe = 0;
    prog.instrs.assign(8, Instruction{});
    prog.instrs[0] = in;
    prog.entry = 0;
    pe.loadProgram(prog);
    pe.acceptControl(0, 0);

    FakeFabric fabric;
    // The proactive emit happens when the config applies — before
    // ANY data arrives (computation-overlapped configuration).
    auto results = runTicks(pe, fabric, 3);
    bool emitted = false;
    for (const auto &r : results)
        for (const CtrlSend &s : r.ctrlSends) {
            EXPECT_EQ(s.addr, 7);
            emitted = true;
        }
    EXPECT_TRUE(emitted);
    EXPECT_EQ(pe.stats().value("proactive_emits"), 1u);
    EXPECT_EQ(pe.fires(), 0u);
}

TEST(PeProactive, EmitWaitsForDataWhenDisabled)
{
    MachineConfig config = testConfig();
    config.features.proactiveConfig = false;
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Copy;
    in.a = OperandSel::channel(0);
    in.emitAddr = 7;
    in.ctrlDests = {2};
    PeProgram prog;
    prog.pe = 0;
    prog.instrs.assign(8, Instruction{});
    prog.instrs[0] = in;
    prog.entry = 0;
    pe.loadProgram(prog);
    pe.acceptControl(0, 0);

    FakeFabric fabric;
    auto before = runTicks(pe, fabric, 3);
    for (const auto &r : before)
        EXPECT_TRUE(r.ctrlSends.empty());

    pe.acceptData(0, 1);
    auto after = runTicks(pe, fabric, 3, 3);
    bool emitted = false;
    for (const auto &r : after)
        for (const CtrlSend &s : r.ctrlSends)
            emitted |= s.addr == 7;
    EXPECT_TRUE(emitted);
}

TEST(PeGating, OneFirePerControlWord)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Copy;
    in.a = OperandSel::channel(0);
    in.ctrlGated = true;
    in.dests = {DestSel::toPe(1, 0)};
    PeProgram prog;
    prog.pe = 0;
    prog.instrs.push_back(in);
    pe.loadProgram(prog);

    FakeFabric fabric;
    // Three data words, but only two control words arrive.
    pe.acceptData(0, 1);
    pe.acceptData(0, 2);
    pe.acceptData(0, 3);
    pe.acceptControl(0, 0);
    runTicks(pe, fabric, 4);
    pe.acceptControl(4, 0);
    runTicks(pe, fabric, 4, 4);
    EXPECT_EQ(pe.fires(), 2u);
}

TEST(PeGating, CreditWaitsForConfiguration)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    // Two gated lanes at addresses 0 and 1.
    PeProgram prog;
    prog.pe = 0;
    for (InstrAddr a : {0, 1}) {
        Instruction in;
        in.mode = SenderMode::Dfg;
        in.op = Opcode::Add;
        in.a = OperandSel::channel(0);
        in.b = OperandSel::immediate(a == 0 ? 100 : 200);
        in.ctrlGated = true;
        in.dests = {DestSel::toPe(1, 0)};
        prog.instrs.push_back(in);
    }
    pe.loadProgram(prog);

    FakeFabric fabric;
    pe.acceptData(0, 1);
    pe.acceptData(0, 2);
    // Word k selects addr 0, word k+1 selects addr 1.
    pe.acceptControl(0, 0);
    auto r0 = tickOnce(pe, fabric, 0); // check phase for addr 0.
    pe.acceptControl(1, 1);
    std::vector<Word> sent;
    for (int t = 1; t < 8; ++t) {
        auto r = tickOnce(pe, fabric, static_cast<Cycle>(t));
        for (const DataSend &s : r.dataSends)
            sent.push_back(s.value);
    }
    (void)r0;
    // First datum under addr 0 (+100), second under addr 1 (+200).
    EXPECT_EQ(sent, (std::vector<Word>{101, 202}));
}

TEST(PeMisc, NonlinearOpRequiresCapablePe)
{
    MachineConfig config = testConfig();
    Pe ordinary(0, config, false);
    Instruction in;
    in.mode = SenderMode::Dfg;
    in.op = Opcode::SigmoidFix;
    in.a = OperandSel::channel(0);
    EXPECT_EXIT(ordinary.loadProgram(singleInstr(in)),
                ::testing::ExitedWithCode(1), "nonlinear");
    Pe capable(1, config, true);
    capable.loadProgram(singleInstr(in)); // fine.
}

// ------------------------------------------------------------------
// The wake decision: after a tick without progress, Pe::wait()
// names the one event (and the deadline) that can change the next
// tick's outcome.
// ------------------------------------------------------------------

TEST(PeWake, IdlePeWaitsForControlOnly)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    FakeFabric fabric;
    EXPECT_FALSE(tickOnce(pe, fabric, 0).progressed);
    EXPECT_EQ(pe.wait().on, WakeOn::Control);
    EXPECT_EQ(pe.wait().until, neverCycle);
    // A word in a channel cannot move an unconfigured PE.
    pe.acceptData(0, 1);
    EXPECT_FALSE(tickOnce(pe, fabric, 1).progressed);
    EXPECT_EQ(pe.wait().on, WakeOn::Control);
}

TEST(PeWake, OperandWaitNamesFirstEmptyChannel)
{
    MachineConfig config = testConfig();
    Pe pe(3, config, false);
    Instruction in;
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Add;
    in.a = OperandSel::channel(0);
    in.b = OperandSel::channel(2);
    in.dests = {DestSel::toPe(1, 0)};
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);
    FakeFabric fabric;
    runTicks(pe, fabric, 2); // configure.
    pe.acceptData(0, 4);
    EXPECT_FALSE(tickOnce(pe, fabric, 2).progressed);
    EXPECT_EQ(pe.wait().on, WakeOn::Channel);
    EXPECT_EQ(pe.wait().pe, 3);
    EXPECT_EQ(pe.wait().index, 2);
    EXPECT_EQ(pe.wait().until, neverCycle);
}

TEST(PeWake, CreditWaitNamesConsumerChannel)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Copy;
    in.a = OperandSel::channel(0);
    in.dests = {DestSel::toPe(5, 1)};
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);
    pe.acceptData(0, 1);
    FakeFabric fabric;
    fabric.creditOk = false;
    runTicks(pe, fabric, 2);
    EXPECT_FALSE(tickOnce(pe, fabric, 2).progressed);
    EXPECT_EQ(pe.wait().on, WakeOn::Credit);
    EXPECT_EQ(pe.wait().pe, 5);
    EXPECT_EQ(pe.wait().index, 1);
    EXPECT_EQ(pe.stats().value("stall_credit"), 2u);
}

TEST(PeWake, FiringPredictsNextGateAndRetire)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Copy;
    in.a = OperandSel::channel(0);
    in.dests = {DestSel::toPe(1, 0)};
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);
    pe.acceptData(0, 1);
    FakeFabric fabric;
    tickOnce(pe, fabric, 0);
    // Config applies and the op issues at t=1, taking the only
    // word: the firing tick already names the next attempt's empty
    // channel, and the retire at 1 + executeLatency as deadline.
    EXPECT_TRUE(tickOnce(pe, fabric, 1).progressed);
    EXPECT_EQ(pe.wait().on, WakeOn::Channel);
    EXPECT_EQ(pe.wait().index, 0);
    EXPECT_EQ(pe.wait().until, 1 + config.executeLatency);
    EXPECT_EQ(pe.stats().value("stall_operand"), 0u);
    // The tick it predicts: no progress, the same wait, counted.
    EXPECT_FALSE(tickOnce(pe, fabric, 2).progressed);
    EXPECT_EQ(pe.wait().on, WakeOn::Channel);
    EXPECT_EQ(pe.wait().until, 1 + config.executeLatency);
    EXPECT_EQ(pe.stats().value("stall_operand"), 1u);
    // The retire progresses; the failed attempt after it still
    // names the wait.
    EXPECT_TRUE(tickOnce(pe, fabric, 3).progressed);
    EXPECT_EQ(pe.wait().on, WakeOn::Channel);
    EXPECT_EQ(pe.wait().until, neverCycle);
}

TEST(PeWake, FiringWithOperandsLeftTicksAgain)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Copy;
    in.a = OperandSel::channel(0);
    in.dests = {DestSel::toPe(1, 0)};
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);
    pe.acceptData(0, 1);
    pe.acceptData(0, 2);
    FakeFabric fabric;
    tickOnce(pe, fabric, 0);
    EXPECT_TRUE(tickOnce(pe, fabric, 1).progressed);
    EXPECT_EQ(pe.wait().on, WakeOn::Tick);
}

TEST(PeWake, PendingConfigurationSetsDeadline)
{
    MachineConfig config = testConfig();
    config.configLatency = 4;
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Copy;
    in.a = OperandSel::channel(0);
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);
    FakeFabric fabric;
    EXPECT_TRUE(tickOnce(pe, fabric, 0).progressed); // check phase.
    EXPECT_FALSE(tickOnce(pe, fabric, 1).progressed);
    EXPECT_EQ(pe.wait().on, WakeOn::Control);
    EXPECT_EQ(pe.wait().until, 4u);
}

TEST(PeWake, DeferredConfigurationAppliesAfterLastCredit)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    PeProgram prog;
    prog.pe = 0;
    for (Word bias : {0, 1}) {
        Instruction in;
        in.mode = SenderMode::Dfg;
        in.op = Opcode::Add;
        in.a = OperandSel::channel(0);
        in.b = OperandSel::immediate(bias);
        in.ctrlGated = true;
        in.dests = {DestSel::toPe(1, 0)};
        prog.instrs.push_back(in);
    }
    pe.loadProgram(prog);
    FakeFabric fabric;
    pe.acceptControl(0, 0);
    runTicks(pe, fabric, 2); // addr 0 applies: one credit.
    pe.acceptControl(2, 1);
    // The lane still holds addr 0's credit, so addr 1 waits, ready
    // from cycle 3, without a deadline.
    EXPECT_TRUE(tickOnce(pe, fabric, 2).progressed);
    EXPECT_EQ(pe.wait().on, WakeOn::Channel);
    EXPECT_EQ(pe.wait().until, neverCycle);
    pe.acceptData(0, 5);
    // Firing spends the credit: addr 1 applies on the next tick.
    EXPECT_TRUE(tickOnce(pe, fabric, 5).progressed);
    EXPECT_EQ(pe.wait().on, WakeOn::Control);
    EXPECT_EQ(pe.wait().until, 6u);
    EXPECT_TRUE(tickOnce(pe, fabric, 6).progressed);
    EXPECT_EQ(pe.currentAddr(), 1);
}

TEST(PeWake, LoopWaitsRecordNoStallReason)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::LoopOp;
    in.op = Opcode::Loop;
    in.loopStart = 0;
    in.loopBound = 10;
    in.pipelineII = 3;
    in.dests = {DestSel::toPe(2, 3)};
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);
    FakeFabric fabric;
    tickOnce(pe, fabric, 0);
    // First iteration at t=1: the generator waits for its II slot.
    EXPECT_TRUE(tickOnce(pe, fabric, 1).progressed);
    EXPECT_EQ(pe.wait().on, WakeOn::Control);
    EXPECT_EQ(pe.wait().until, 4u);
    EXPECT_FALSE(tickOnce(pe, fabric, 2).progressed);
    EXPECT_EQ(pe.wait().on, WakeOn::Control);
    EXPECT_EQ(pe.wait().until, 4u);
    fabric.creditOk = false;
    EXPECT_FALSE(tickOnce(pe, fabric, 4).progressed);
    EXPECT_EQ(pe.wait().on, WakeOn::Credit);
    EXPECT_EQ(pe.wait().pe, 2);
    EXPECT_EQ(pe.wait().index, 3);
    EXPECT_EQ(pe.wait().until, neverCycle);
    EXPECT_EQ(pe.stats().value("stall_credit"), 0u);
}

TEST(PeWake, FifoFedLoopWaitsForTheEmptyFifo)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::LoopOp;
    in.op = Opcode::Loop;
    in.startFifo = 0;
    in.boundFifo = 1;
    in.pushFifo = 2;
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);
    FakeFabric fabric;
    fabric.fifos[0] = {0};
    runTicks(pe, fabric, 2);
    EXPECT_FALSE(tickOnce(pe, fabric, 2).progressed);
    EXPECT_EQ(pe.wait().on, WakeOn::FifoData);
    EXPECT_EQ(pe.wait().index, 1);
    fabric.fifos[1] = {5};
    fabric.fifoSpaceOk = false;
    EXPECT_FALSE(tickOnce(pe, fabric, 3).progressed);
    EXPECT_EQ(pe.wait().on, WakeOn::FifoSpace);
    EXPECT_EQ(pe.wait().index, 2);
}

TEST(PeWake, MemoryPortStallTicksAgain)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Load;
    in.a = OperandSel::immediate(8);
    in.dests = {DestSel::toPe(1, 0)};
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);
    FakeFabric fabric;
    fabric.memOk = false;
    runTicks(pe, fabric, 2);
    EXPECT_FALSE(tickOnce(pe, fabric, 2).progressed);
    EXPECT_EQ(pe.wait().on, WakeOn::Tick);
}

TEST(PeMisc, LocalRegisterWriteAndRead)
{
    MachineConfig config = testConfig();
    Pe pe(0, config, false);
    Instruction in;
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Add;
    in.a = OperandSel::channel(0);
    in.b = OperandSel::reg(0);
    in.dests = {DestSel::toReg(0), DestSel::toPe(1, 0)};
    pe.loadProgram(singleInstr(in));
    pe.acceptControl(0, 0);

    FakeFabric fabric;
    pe.acceptData(0, 5);
    runTicks(pe, fabric, 5);
    pe.acceptData(0, 7);
    auto results = runTicks(pe, fabric, 5, 5);
    Word last = 0;
    for (const auto &r : results)
        for (const DataSend &s : r.dataSends)
            last = s.value;
    EXPECT_EQ(last, 12); // 5 (in reg) + 7.
}

} // namespace
} // namespace marionette

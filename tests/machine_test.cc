/**
 * @file
 * Whole-machine integration tests: compiled kernels running end to
 * end on the cycle-accurate simulator, covering the producer/
 * consumer pipeline, branch divergence with proactive
 * configuration, FIFO-decoupled imperfect loops, back-pressure,
 * quiescence detection and snapshot/restore.
 */

#include <gtest/gtest.h>

#include "arch/machine.h"
#include "compiler/compiler.h"
#include "support/mapped_kernels.h"
#include "compiler/program_builder.h"
#include "sim/rng.h"

namespace marionette
{
namespace
{

MachineConfig
defaultConfig()
{
    return MachineConfig{};
}

TEST(Machine, EmptyProgramQuiescesImmediately)
{
    MarionetteMachine m(defaultConfig());
    Program p;
    p.name = "empty";
    m.load(p);
    RunResult r = m.run(1000);
    EXPECT_TRUE(r.finished);
    EXPECT_LT(r.cycles, 50u);
}

TEST(Machine, LoopStreamsToOutput)
{
    MachineConfig config = defaultConfig();
    ProgramBuilder b("stream", config);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 3;
    gen.loopBound = 8;
    gen.dests = {DestSel::toOutput(0)};
    b.setEntry(0, 0);
    MarionetteMachine m(config);
    m.load(b.finish());
    RunResult r = m.run();
    ASSERT_TRUE(r.finished);
    EXPECT_EQ(r.outputs[0], (std::vector<Word>{3, 4, 5, 6, 7}));
}

TEST(Machine, TwoStagePipelineComputes)
{
    MachineConfig config = defaultConfig();
    ProgramBuilder b("pipe", config);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = 10;
    gen.dests = {DestSel::toPe(1, 0)};
    b.setEntry(0, 0);
    Instruction &sq = b.place(1, 0);
    sq.mode = SenderMode::Dfg;
    sq.op = Opcode::Mul;
    sq.a = OperandSel::channel(0);
    sq.b = OperandSel::immediate(3);
    sq.dests = {DestSel::toPe(2, 0)};
    b.setEntry(1, 0);
    Instruction &add = b.place(2, 0);
    add.mode = SenderMode::Dfg;
    add.op = Opcode::Add;
    add.a = OperandSel::channel(0);
    add.b = OperandSel::immediate(1);
    add.dests = {DestSel::toOutput(0)};
    b.setEntry(2, 0);

    MarionetteMachine m(config);
    m.load(b.finish());
    RunResult r = m.run();
    ASSERT_TRUE(r.finished);
    ASSERT_EQ(r.outputs[0].size(), 10u);
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(r.outputs[0][static_cast<std::size_t>(i)],
                  3 * i + 1);
}

TEST(Machine, PipelineAchievesUnitII)
{
    // A 64-iteration two-stage pipeline should finish in roughly
    // 64 + constant cycles, not 64 * latency.
    MachineConfig config = defaultConfig();
    ProgramBuilder b("ii", config);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = 64;
    gen.dests = {DestSel::toPe(1, 0)};
    b.setEntry(0, 0);
    Instruction &inc = b.place(1, 0);
    inc.mode = SenderMode::Dfg;
    inc.op = Opcode::Add;
    inc.a = OperandSel::channel(0);
    inc.b = OperandSel::immediate(1);
    inc.dests = {DestSel::toOutput(0)};
    b.setEntry(1, 0);

    MarionetteMachine m(config);
    m.load(b.finish());
    RunResult r = m.run();
    ASSERT_TRUE(r.finished);
    EXPECT_EQ(r.outputs[0].size(), 64u);
    EXPECT_LT(r.cycles, 64 + 30);
}

TEST(Machine, BackPressureThrottlesProducer)
{
    // Consumer with II = 4 (via loop generator pacing) forces the
    // producer to stall without losing data.
    MachineConfig config = defaultConfig();
    ProgramBuilder b("bp", config);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = 40;
    gen.pipelineII = 1;
    gen.dests = {DestSel::toPe(1, 0)};
    b.setEntry(0, 0);
    // Slow consumer: needs a second operand that trickles in at
    // II=4 from another generator.
    Instruction &slow = b.place(2, 0);
    slow.mode = SenderMode::LoopOp;
    slow.op = Opcode::Loop;
    slow.loopStart = 0;
    slow.loopBound = 40;
    slow.pipelineII = 4;
    slow.dests = {DestSel::toPe(1, 1)};
    b.setEntry(2, 0);
    Instruction &join = b.place(1, 0);
    join.mode = SenderMode::Dfg;
    join.op = Opcode::Add;
    join.a = OperandSel::channel(0);
    join.b = OperandSel::channel(1);
    join.dests = {DestSel::toOutput(0)};
    b.setEntry(1, 0);

    MarionetteMachine m(config);
    m.load(b.finish());
    RunResult r = m.run();
    ASSERT_TRUE(r.finished);
    ASSERT_EQ(r.outputs[0].size(), 40u);
    for (int i = 0; i < 40; ++i)
        EXPECT_EQ(r.outputs[0][static_cast<std::size_t>(i)],
                  2 * i);
}

TEST(Machine, AccumulatorSelfLoopSums)
{
    MachineConfig config = defaultConfig();
    ProgramBuilder b("acc", config);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 1;
    gen.loopBound = 11;
    gen.dests = {DestSel::toPe(1, 0)};
    b.setEntry(0, 0);
    Instruction &acc = b.place(1, 0);
    acc.mode = SenderMode::Dfg;
    acc.op = Opcode::Add;
    acc.a = OperandSel::channel(0);
    acc.b = OperandSel::channel(1);
    acc.dests = {DestSel::toPe(1, 1), DestSel::toOutput(0)};
    b.setEntry(1, 0);

    MarionetteMachine m(config);
    m.load(b.finish());
    m.injectData(1, 1, 0);
    RunResult r = m.run();
    ASSERT_TRUE(r.finished);
    ASSERT_FALSE(r.outputs[0].empty());
    EXPECT_EQ(r.outputs[0].back(), 55); // 1+...+10.
}

TEST(Machine, BranchSteersMergedTarget)
{
    // Condensed version of examples/branch_divergence.cpp.
    MachineConfig config = defaultConfig();
    ProgramBuilder b("bd", config);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = 32;
    gen.dests = {DestSel::toPe(2, 0), DestSel::toPe(3, 0)};
    b.setEntry(0, 0);
    Instruction &br = b.place(2, 0);
    br.mode = SenderMode::BranchOp;
    br.op = Opcode::And;
    br.a = OperandSel::channel(0);
    br.b = OperandSel::immediate(1);
    br.takenAddr = 1;
    br.notTakenAddr = 2;
    br.ctrlDests = {3};
    b.setEntry(2, 0);
    for (InstrAddr addr : {1, 2}) {
        Instruction &lane = b.place(3, addr);
        lane.mode = SenderMode::Dfg;
        lane.op = addr == 1 ? Opcode::Mul : Opcode::Add;
        lane.a = OperandSel::channel(0);
        lane.b = OperandSel::immediate(addr == 1 ? 10 : 1000);
        lane.ctrlGated = true;
        lane.dests = {DestSel::toOutput(0)};
    }

    MarionetteMachine m(config);
    m.load(b.finish());
    RunResult r = m.run();
    ASSERT_TRUE(r.finished);
    ASSERT_EQ(r.outputs[0].size(), 32u);
    for (int i = 0; i < 32; ++i) {
        Word want = (i & 1) ? i * 10 : i + 1000;
        EXPECT_EQ(r.outputs[0][static_cast<std::size_t>(i)], want)
            << "element " << i;
    }
    // The merged target actually reconfigured between lanes.
    EXPECT_GT(m.peStats(3).value("config_switches"), 16u);
}

TEST(Machine, FifoFedInnerLoopRunsAllRounds)
{
    // Outer generator pushes bounds; inner loop runs per round.
    MachineConfig config = defaultConfig();
    ProgramBuilder b("fifo", config);
    Instruction &outer = b.place(0, 0);
    outer.mode = SenderMode::LoopOp;
    outer.op = Opcode::Loop;
    outer.loopStart = 1;
    outer.loopBound = 6; // rounds with bounds 1..5.
    outer.pushFifo = 1;
    b.setEntry(0, 0);
    Instruction &inner = b.place(1, 0);
    inner.mode = SenderMode::LoopOp;
    inner.op = Opcode::Loop;
    inner.loopStart = 0;
    inner.boundFifo = 1;
    inner.dests = {DestSel::toOutput(0)};
    b.setEntry(1, 0);

    MarionetteMachine m(config);
    m.load(b.finish());
    RunResult r = m.run();
    ASSERT_TRUE(r.finished);
    // Rounds emit 0..b-1 for b = 1..5: total 1+2+3+4+5 = 15.
    EXPECT_EQ(r.outputs[0].size(), 15u);
    EXPECT_EQ(m.peStats(1).value("loop_rounds"), 5u);
}

TEST(Machine, ScratchpadRoundTripThroughKernel)
{
    // Copy kernel: out[i] = in[i] via load->store pipeline.
    MachineConfig config = defaultConfig();
    ProgramBuilder b("copy", config);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = 20;
    gen.dests = {DestSel::toPe(1, 0), DestSel::toPe(2, 0)};
    b.setEntry(0, 0);
    Instruction &ld = b.place(1, 0);
    ld.mode = SenderMode::Dfg;
    ld.op = Opcode::Load;
    ld.a = OperandSel::channel(0);
    ld.memBase = 0;
    ld.dests = {DestSel::toPe(2, 1)};
    b.setEntry(1, 0);
    Instruction &st = b.place(2, 0);
    st.mode = SenderMode::Dfg;
    st.op = Opcode::Store;
    st.a = OperandSel::channel(0);
    st.b = OperandSel::channel(1);
    st.memBase = 100;
    b.setEntry(2, 0);

    MarionetteMachine m(config);
    m.load(b.finish());
    std::vector<Word> data;
    for (int i = 0; i < 20; ++i)
        data.push_back(i * i - 7);
    m.scratchpad().load(0, data);
    RunResult r = m.run();
    ASSERT_TRUE(r.finished);
    EXPECT_EQ(m.scratchpad().dump(100, 20), data);
}

TEST(Machine, ControlOverDataMeshStillCorrectButSlower)
{
    // The Fig. 12 ablation: disabling the dedicated network keeps
    // results identical but costs cycles.
    auto build = [](const MachineConfig &config) {
        ProgramBuilder b("abl", config);
        Instruction &gen = b.place(0, 0);
        gen.mode = SenderMode::LoopOp;
        gen.op = Opcode::Loop;
        gen.loopStart = 0;
        gen.loopBound = 48;
        gen.dests = {DestSel::toPe(5, 0), DestSel::toPe(15, 0)};
        b.setEntry(0, 0);
        Instruction &br = b.place(5, 0);
        br.mode = SenderMode::BranchOp;
        br.op = Opcode::And;
        br.a = OperandSel::channel(0);
        br.b = OperandSel::immediate(1);
        br.takenAddr = 1;
        br.notTakenAddr = 2;
        br.ctrlDests = {15}; // far corner: mesh distance matters.
        b.setEntry(5, 0);
        for (InstrAddr addr : {1, 2}) {
            Instruction &lane = b.place(15, addr);
            lane.mode = SenderMode::Dfg;
            lane.op = Opcode::Add;
            lane.a = OperandSel::channel(0);
            lane.b = OperandSel::immediate(addr * 100);
            lane.ctrlGated = true;
            lane.dests = {DestSel::toOutput(0)};
        }
        return b.finish();
    };

    MachineConfig with_net;
    with_net.features.controlNetwork = true;
    MarionetteMachine m1(with_net);
    m1.load(build(with_net));
    RunResult r1 = m1.run();

    MachineConfig without_net;
    without_net.features.controlNetwork = false;
    MarionetteMachine m2(without_net);
    m2.load(build(without_net));
    RunResult r2 = m2.run();

    ASSERT_TRUE(r1.finished);
    ASSERT_TRUE(r2.finished);
    EXPECT_EQ(r1.outputs[0], r2.outputs[0]); // same answers.
    EXPECT_LT(r1.cycles, r2.cycles);         // faster with net.
}

TEST(Machine, MappedDfgKernelMatchesGolden)
{
    // mapLoopedDfg end-to-end: out[i] = (a[i] + 5) * a[i].
    MachineConfig config = defaultConfig();
    Dfg dfg;
    int iv = dfg.addInput("i");
    NodeId a = dfg.addNode(Opcode::Load, Operand::input(iv));
    NodeId p5 = dfg.addNode(Opcode::Add, Operand::node(a),
                            Operand::imm(5));
    NodeId prod = dfg.addNode(Opcode::Mul, Operand::node(p5),
                              Operand::node(a));
    NodeId oaddr = dfg.addNode(Opcode::Add, Operand::input(iv),
                               Operand::imm(200));
    dfg.addNode(Opcode::Store, Operand::node(oaddr),
                Operand::node(prod));
    dfg.addOutput("y", prod);

    Program prog = mapLoopedDfg("k", config, dfg,
                                LoopSpec{0, 32, 1, 1});
    MarionetteMachine m(config);
    m.load(prog);
    Rng rng(3);
    std::vector<Word> in(32);
    for (Word &v : in)
        v = static_cast<Word>(rng.nextRange(-50, 50));
    m.scratchpad().load(0, in);
    RunResult r = m.run();
    ASSERT_TRUE(r.finished);
    for (int i = 0; i < 32; ++i) {
        Word v = in[static_cast<std::size_t>(i)];
        EXPECT_EQ(m.scratchpad().read(200 + i), (v + 5) * v);
    }
}

TEST(Machine, UtilizationAndFireStatsPopulated)
{
    MachineConfig config = defaultConfig();
    ProgramBuilder b("stats", config);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = 16;
    gen.dests = {DestSel::toOutput(0)};
    b.setEntry(0, 0);
    MarionetteMachine m(config);
    m.load(b.finish());
    RunResult r = m.run();
    EXPECT_EQ(r.totalFires, 16u);
    EXPECT_GT(r.peUtilization, 0.0);
    EXPECT_EQ(m.stats().value("cycles"), r.cycles);
}

TEST(Machine, CycleLimitReportedWhenNotQuiescing)
{
    // A FIFO-fed loop with no producer never quiesces by itself —
    // but it also makes no progress, so it *does* quiesce.  Use a
    // self-feeding infinite ping-pong instead.
    MachineConfig config = defaultConfig();
    ProgramBuilder b("inf", config);
    Instruction &a = b.place(0, 0);
    a.mode = SenderMode::Dfg;
    a.op = Opcode::Add;
    a.a = OperandSel::channel(0);
    a.b = OperandSel::immediate(1);
    a.dests = {DestSel::toPe(1, 0)};
    b.setEntry(0, 0);
    Instruction &c = b.place(1, 0);
    c.mode = SenderMode::Dfg;
    c.op = Opcode::Copy;
    c.a = OperandSel::channel(0);
    c.dests = {DestSel::toPe(0, 0)};
    b.setEntry(1, 0);

    MarionetteMachine m(config);
    m.load(b.finish());
    m.injectData(0, 0, 0);
    RunResult r = m.run(2000);
    EXPECT_FALSE(r.finished);
    EXPECT_EQ(r.cycles, 2000u);
}

struct RunCapture
{
    RunResult result;
    std::string stats;
    std::vector<Word> memDump;
};

void
expectSame(const RunCapture &a, const RunCapture &b,
           const std::string &label)
{
    EXPECT_EQ(a.result.cycles, b.result.cycles) << label;
    EXPECT_EQ(a.result.finished, b.result.finished) << label;
    EXPECT_EQ(a.result.totalFires, b.result.totalFires) << label;
    EXPECT_EQ(a.result.outputs, b.result.outputs) << label;
    EXPECT_DOUBLE_EQ(a.result.peUtilization, b.result.peUtilization)
        << label;
    EXPECT_EQ(a.result.error, b.result.error) << label;
    EXPECT_EQ(a.stats, b.stats) << label;
    EXPECT_EQ(a.memDump, b.memDump) << label;
}

/** Restoring a post-prepare checkpoint — into the same machine
 *  after a run, or into a fresh machine — reproduces the straight
 *  prepare-and-run byte for byte.  SI on the prototype starts with
 *  empty channels; SCD on the evaluation fabric starts with boot
 *  seeds in its channels, so its snapshot carries channel words. */
TEST(Machine, SnapshotRestoreDeterminism)
{
    const struct
    {
        MachineConfig config;
        const char *kernel;
        bool seeded;
    } cases[] = {
        {MachineConfig{}, "SI", false}, // paper-prototype defaults.
        {evalFabric(), "SCD", true},
    };
    for (const auto &c : cases) {
        SCOPED_TRACE(c.kernel);
        const MachineConfig &config = c.config;
        CompileResult r = Compiler(config).compile(c.kernel);
        ASSERT_TRUE(r.ok()) << r.report.toString();
        const CompiledKernel &kernel = *r.kernel;

        auto capture = [&](MarionetteMachine &m) {
            RunCapture cap;
            cap.result = m.run(kernel.cycleBudget);
            cap.stats = m.renderAllStats();
            cap.memDump = m.scratchpad().dump(
                0, static_cast<int>(config.scratchpadBytes /
                                    sizeof(Word)));
            EXPECT_EQ(kernel.validate(m, cap.result), "");
            return cap;
        };

        MarionetteMachine a(config);
        kernel.prepare(a);
        MachineSnapshot snap = a.snapshot();
        std::size_t channel_words = 0;
        for (const Pe::State &pe : snap.pes)
            for (const std::vector<Word> &words : pe.channels)
                channel_words += words.size();
        EXPECT_EQ(channel_words > 0, c.seeded) << channel_words;
        RunCapture straight = capture(a);

        // Rewind the very machine that just ran.
        a.restore(snap);
        RunCapture rewound = capture(a);
        expectSame(straight, rewound, "in-place restore");

        // Warm-start a machine that never saw prepare().
        MarionetteMachine b(config);
        b.restore(snap);
        RunCapture warmed = capture(b);
        expectSame(straight, warmed, "fresh-machine restore");

        // A snapshot of a restored machine is as good as the
        // original.
        MarionetteMachine m(config);
        m.restore(snap);
        MachineSnapshot resnap = m.snapshot();
        MarionetteMachine d(config);
        d.restore(resnap);
        RunCapture chained = capture(d);
        expectSame(straight, chained, "snapshot-of-restore");
    }
}

TEST(MachineDeath, ConfigurationExceedingInstrMemoryRejected)
{
    // Table 4's instruction scratchpad bounds the binary
    // configuration a kernel may load.
    MachineConfig config;
    config.instrMemBytes = 256; // deliberately tiny.
    ProgramBuilder b("fat", config);
    for (PeId pe = 0; pe < 8; ++pe) {
        Instruction &in = b.place(pe, 0);
        in.mode = SenderMode::Dfg;
        in.op = Opcode::Copy;
        in.a = OperandSel::channel(0);
        b.setEntry(pe, 0);
    }
    Program prog = b.finish();
    MarionetteMachine m(config);
    EXPECT_EXIT(m.load(prog), ::testing::ExitedWithCode(1),
                "instruction scratchpad");
}

TEST(MachineDeath, ProgramForBiggerArrayRejected)
{
    MachineConfig small;
    small.rows = 2;
    small.cols = 2;
    small.nonlinearPes = 1;
    ProgramBuilder b("big", MachineConfig{});
    Instruction &in = b.place(9, 0);
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Copy;
    in.a = OperandSel::channel(0);
    b.setEntry(9, 0);
    Program prog = b.finish();
    MarionetteMachine m(small);
    EXPECT_EXIT(m.load(prog), ::testing::ExitedWithCode(1),
                "outside");
}

} // namespace
} // namespace marionette

/**
 * @file
 * Golden equivalence of the activity-driven hot path.
 *
 * Every workload here runs twice — once on the reference
 * tick-every-PE loop (eventDrivenSim = false) and once on the
 * activity-driven worklist (eventDrivenSim = true) — and must
 * produce an identical RunResult (cycles, outputs, fires) and an
 * identical renderAllStats() dump, byte for byte.  The stat dump is
 * the strictest observable: it covers every per-cycle stall counter
 * the backfill machinery replays for skipped ticks.  The compiled
 * kernels also compare the full scratchpad, and bound the event
 * path's host work (RunResult::peTicks).
 */

#include <gtest/gtest.h>

#include "arch/machine.h"
#include "compiler/compiler.h"
#include "support/mapped_kernels.h"
#include "compiler/program_builder.h"
#include "sim/rng.h"
#include "workloads/workload.h"

namespace marionette
{
namespace
{

struct RunCapture
{
    RunResult result;
    std::string stats;
    std::vector<Word> memDump;
};

/** Load + optional setup, run, capture everything observable. */
RunCapture
runOnce(const MachineConfig &config, const Program &prog,
        const std::function<void(MarionetteMachine &)> &setup,
        Word dump_base = 0, int dump_count = 0,
        Cycle max_cycles = 2'000'000)
{
    MarionetteMachine m(config);
    m.load(prog);
    if (setup)
        setup(m);
    RunCapture cap;
    cap.result = m.run(max_cycles);
    cap.stats = m.renderAllStats();
    if (dump_count > 0)
        cap.memDump = m.scratchpad().dump(dump_base, dump_count);
    return cap;
}

void
expectSame(const RunCapture &ref, const RunCapture &fast,
           const std::string &label = "")
{
    EXPECT_EQ(ref.result.cycles, fast.result.cycles) << label;
    EXPECT_EQ(ref.result.finished, fast.result.finished) << label;
    EXPECT_EQ(ref.result.totalFires, fast.result.totalFires) << label;
    EXPECT_EQ(ref.result.outputs, fast.result.outputs) << label;
    EXPECT_DOUBLE_EQ(ref.result.peUtilization,
                     fast.result.peUtilization)
        << label;
    EXPECT_EQ(ref.result.error, fast.result.error) << label;
    EXPECT_EQ(ref.result.errorDetail, fast.result.errorDetail)
        << label;
    EXPECT_EQ(ref.result.stalledCycle, fast.result.stalledCycle)
        << label;
    EXPECT_EQ(ref.result.faultPe, fast.result.faultPe) << label;
    EXPECT_EQ(ref.stats, fast.stats) << label;
    EXPECT_EQ(ref.memDump, fast.memDump) << label;
}

void
expectIdentical(const MachineConfig &base, const Program &prog,
                const std::function<void(MarionetteMachine &)>
                    &setup = nullptr,
                Word dump_base = 0, int dump_count = 0,
                Cycle max_cycles = 2'000'000,
                const std::string &label = "")
{
    MachineConfig ref_config = base;
    ref_config.eventDrivenSim = false;
    MachineConfig fast_config = base;
    fast_config.eventDrivenSim = true;

    RunCapture ref = runOnce(ref_config, prog, setup, dump_base,
                             dump_count, max_cycles);
    RunCapture fast = runOnce(fast_config, prog, setup, dump_base,
                              dump_count, max_cycles);
    expectSame(ref, fast, label);
}

/** Workload 1: simple-loops shape — one generator feeding a short
 *  DFG chain, most of the array dormant. */
TEST(HotpathEquivalence, SimpleLoopPipeline)
{
    MachineConfig config;
    ProgramBuilder b("simple_loops", config);
    b.setNumOutputs(1);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = 200;
    gen.dests = {DestSel::toPe(1, 0)};
    b.setEntry(0, 0);
    Instruction &mul = b.place(1, 0);
    mul.mode = SenderMode::Dfg;
    mul.op = Opcode::Mul;
    mul.a = OperandSel::channel(0);
    mul.b = OperandSel::immediate(3);
    mul.dests = {DestSel::toPe(2, 0)};
    b.setEntry(1, 0);
    Instruction &add = b.place(2, 0);
    add.mode = SenderMode::Dfg;
    add.op = Opcode::Add;
    add.a = OperandSel::channel(0);
    add.b = OperandSel::immediate(1);
    add.dests = {DestSel::toOutput(0)};
    b.setEntry(2, 0);
    expectIdentical(config, b.finish());
}

/** Workload 2: branch divergence — control-gated lanes with
 *  reconfiguration between elements (the Fig. 3 pattern), with a
 *  1-cycle and a 4-cycle configuration phase (a lane then sleeps
 *  until its configuration applies). */
TEST(HotpathEquivalence, BranchDivergence)
{
    MachineConfig config;
    ProgramBuilder b("branch_div", config);
    b.setNumOutputs(1);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = 48;
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
    const Program prog = b.finish();
    for (Cycles latency : {Cycles{1}, Cycles{4}}) {
        config.configLatency = latency;
        expectIdentical(config, prog, nullptr, 0, 0, 2'000'000,
                        "configLatency " + std::to_string(latency));
    }
}

/** Control ahead of data: the branch sits next to the generator
 *  and the gated lane in the far corner, so each lane's control
 *  word lands before its datum.  A reconfiguration then waits,
 *  ready, for the lane to fire its last credit, and applies on the
 *  very next tick. */
TEST(HotpathEquivalence, ControlAheadOfData)
{
    MachineConfig config;
    ProgramBuilder b("ctrl_ahead", config);
    b.setNumOutputs(1);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = 40;
    gen.dests = {DestSel::toPe(1, 0), DestSel::toPe(15, 0)};
    b.setEntry(0, 0);
    Instruction &br = b.place(1, 0);
    br.mode = SenderMode::BranchOp;
    br.op = Opcode::And;
    br.a = OperandSel::channel(0);
    br.b = OperandSel::immediate(1);
    br.takenAddr = 1;
    br.notTakenAddr = 2;
    br.ctrlDests = {15};
    b.setEntry(1, 0);
    for (InstrAddr addr : {1, 2}) {
        Instruction &lane = b.place(15, addr);
        lane.mode = SenderMode::Dfg;
        lane.op = Opcode::Add;
        lane.a = OperandSel::channel(0);
        lane.b = OperandSel::immediate(addr * 100);
        lane.ctrlGated = true;
        lane.dests = {DestSel::toOutput(0)};
    }
    const Program prog = b.finish();
    for (Cycles latency : {Cycles{1}, Cycles{3}}) {
        config.configLatency = latency;
        expectIdentical(config, prog, nullptr, 0, 0, 2'000'000,
                        "configLatency " + std::to_string(latency));
    }
}

/** Workload 3: FIFO-decoupled imperfect nest with scratchpad
 *  traffic — exercises FIFO wake lists, memory-port stalls and the
 *  accumulator recurrence. */
TEST(HotpathEquivalence, FifoDecoupledNestWithMemory)
{
    MachineConfig config;
    Dfg bounds; // start = i*8, bound = i*8 + 8.
    int i = bounds.addInput("i");
    NodeId base = bounds.addNode(Opcode::Shl, Operand::input(i),
                                 Operand::imm(3));
    NodeId end = bounds.addNode(Opcode::Add, Operand::node(base),
                                Operand::imm(8));
    bounds.addOutput("start", base);
    bounds.addOutput("bound", end);

    Dfg body; // partial = A[j].
    int j = body.addInput("j");
    NodeId v = body.addNode(Opcode::Load, Operand::input(j),
                            Operand::none(), Operand::none(),
                            "A[j]");
    body.addOutput("partial", v);

    MappedNest nest = mapImperfectNest(
        "rowsum", config, LoopSpec{0, 8, 1, 1}, bounds, body);

    Rng rng(9);
    std::vector<Word> a(64);
    for (Word &x : a)
        x = static_cast<Word>(rng.nextRange(-50, 50));

    expectIdentical(
        config, nest.program,
        [&](MarionetteMachine &m) {
            m.injectData(nest.accumulatorPe, 1, 0);
            m.scratchpad().load(0, a);
        });
}

/** Workload 4: mapped DFG kernel with loads and stores (memory
 *  order and bank-port contention on both paths). */
TEST(HotpathEquivalence, MappedDfgKernelWithStores)
{
    MachineConfig config;
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
    Rng rng(3);
    std::vector<Word> in(32);
    for (Word &v : in)
        v = static_cast<Word>(rng.nextRange(-50, 50));

    expectIdentical(
        config, prog,
        [&](MarionetteMachine &m) { m.scratchpad().load(0, in); },
        /*dump_base=*/200, /*dump_count=*/32);
}

/** Workload 5: control over the data mesh (no dedicated network)
 *  on a big, mostly-idle array — long-latency control wakes. */
TEST(HotpathEquivalence, ControlOverMeshOnBigArray)
{
    MachineConfig config;
    config.rows = 8;
    config.cols = 8;
    config.nonlinearPes = 8;
    config.instrMemBytes = 8 * 1024;
    config.features.controlNetwork = false;
    ProgramBuilder b("mesh_ctrl", config);
    b.setNumOutputs(1);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = 40;
    gen.dests = {DestSel::toPe(9, 0), DestSel::toPe(63, 0)};
    b.setEntry(0, 0);
    Instruction &br = b.place(9, 0);
    br.mode = SenderMode::BranchOp;
    br.op = Opcode::And;
    br.a = OperandSel::channel(0);
    br.b = OperandSel::immediate(1);
    br.takenAddr = 1;
    br.notTakenAddr = 2;
    br.ctrlDests = {63}; // far corner over the mesh.
    b.setEntry(9, 0);
    for (InstrAddr addr : {1, 2}) {
        Instruction &lane = b.place(63, addr);
        lane.mode = SenderMode::Dfg;
        lane.op = Opcode::Add;
        lane.a = OperandSel::channel(0);
        lane.b = OperandSel::immediate(addr * 100);
        lane.ctrlGated = true;
        lane.dests = {DestSel::toOutput(0)};
    }
    expectIdentical(config, b.finish());
}

/** Workload 6: a never-quiescing ping-pong hitting the cycle limit
 *  (max_cycles path + end-of-run backfill for sleepers). */
TEST(HotpathEquivalence, CycleLimitedInfinitePingPong)
{
    MachineConfig config;
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
    expectIdentical(
        config, b.finish(),
        [](MarionetteMachine &m) { m.injectData(0, 0, 0); },
        0, 0, /*max_cycles=*/3000);
}

/** Back-pressure: a slow consumer throttling a fast producer via
 *  credits (downstream-consumption wakes). */
TEST(HotpathEquivalence, BackPressureCreditWakes)
{
    MachineConfig config;
    ProgramBuilder b("bp", config);
    b.setNumOutputs(1);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = 60;
    gen.pipelineII = 1;
    gen.dests = {DestSel::toPe(1, 0)};
    b.setEntry(0, 0);
    Instruction &slow = b.place(2, 0);
    slow.mode = SenderMode::LoopOp;
    slow.op = Opcode::Loop;
    slow.loopStart = 0;
    slow.loopBound = 60;
    slow.pipelineII = 5;
    slow.dests = {DestSel::toPe(1, 1)};
    b.setEntry(2, 0);
    Instruction &join = b.place(1, 0);
    join.mode = SenderMode::Dfg;
    join.op = Opcode::Add;
    join.a = OperandSel::channel(0);
    join.b = OperandSel::channel(1);
    join.dests = {DestSel::toOutput(0)};
    b.setEntry(1, 0);
    expectIdentical(config, b.finish());
}

/** Cycle-limit cutoff sweep: truncating the back-pressure kernel
 *  at every possible cycle exercises end-of-run backfill in every
 *  wake/sleep phase — including a producer woken mid-sweep of the
 *  very last simulated cycle. */
TEST(HotpathEquivalence, MaxCycleCutoffSweep)
{
    MachineConfig config;
    ProgramBuilder b("cutoff", config);
    b.setNumOutputs(1);
    // Immediate-fed producer: fires every cycle until the consumer's
    // channel fills, then credit-stalls with nothing in flight — the
    // canonical sleeper.  Its wake comes from the higher-id
    // consumer's progress, i.e. mid-sweep after its own slot.
    Instruction &src = b.place(0, 0);
    src.mode = SenderMode::Dfg;
    src.op = Opcode::Add;
    src.a = OperandSel::immediate(1);
    src.b = OperandSel::immediate(2);
    src.dests = {DestSel::toPe(1, 0)};
    b.setEntry(0, 0);
    Instruction &join = b.place(1, 0);
    join.mode = SenderMode::Dfg;
    join.op = Opcode::Add;
    join.a = OperandSel::channel(0);
    join.b = OperandSel::channel(1);
    join.dests = {DestSel::toOutput(0)};
    b.setEntry(1, 0);
    Instruction &slow = b.place(2, 0);
    slow.mode = SenderMode::LoopOp;
    slow.op = Opcode::Loop;
    slow.loopStart = 0;
    slow.loopBound = 30;
    slow.pipelineII = 7;
    slow.dests = {DestSel::toPe(1, 1)};
    b.setEntry(2, 0);
    Program prog = b.finish();
    for (Cycle limit = 1; limit <= 260; ++limit)
        expectIdentical(config, prog, nullptr, 0, 0, limit);
}

/** FIFO-fed inner loop: outer generator pushes bounds through a
 *  control FIFO (push/pop wake lists both directions).  The second
 *  case makes the FIFO shallower than the outer loop's pushes, so
 *  the pusher sleeps on FIFO space until the inner loop pops. */
TEST(HotpathEquivalence, FifoFedInnerLoop)
{
    MachineConfig config;
    ProgramBuilder b("fifo", config);
    b.setNumOutputs(1);
    Instruction &outer = b.place(0, 0);
    outer.mode = SenderMode::LoopOp;
    outer.op = Opcode::Loop;
    outer.loopStart = 1;
    outer.loopBound = 8;
    outer.pushFifo = 1;
    b.setEntry(0, 0);
    Instruction &inner = b.place(1, 0);
    inner.mode = SenderMode::LoopOp;
    inner.op = Opcode::Loop;
    inner.loopStart = 0;
    inner.boundFifo = 1;
    inner.dests = {DestSel::toOutput(0)};
    b.setEntry(1, 0);
    const Program prog = b.finish();
    expectIdentical(config, prog);
    config.controlFifoDepth = 2;
    expectIdentical(config, prog, nullptr, 0, 0, 2'000'000,
                    "shallow FIFO");
}

/** Transient upsets: one upset on the probe kernel of
 *  fault_resilience_test (a loop streaming four words into a copy
 *  PE), swept over every cycle of the clean run.  An upset wakes its
 *  PE unconditionally, so this checks that a corrupted channel head
 *  changes nothing else between the paths. */
TEST(HotpathEquivalence, TransientUpsetSweep)
{
    MachineConfig config;
    ProgramBuilder b("stream", config);
    b.setNumOutputs(1);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = 4;
    gen.loopStep = 1;
    gen.pipelineII = 1;
    gen.dests = {DestSel::toPe(1, 0)};
    b.setEntry(0, 0);
    Instruction &sink = b.place(1, 0);
    sink.mode = SenderMode::Dfg;
    sink.op = Opcode::Copy;
    sink.a = OperandSel::channel(0);
    sink.dests = {DestSel::toOutput(0)};
    b.setEntry(1, 0);
    Program prog = b.finish();

    const RunCapture clean = runOnce(config, prog, nullptr);
    ASSERT_TRUE(clean.result.ok());
    for (Cycle c = 0; c <= clean.result.cycles; ++c) {
        MachineConfig faulted = config;
        faulted.faults.transients = {
            TransientFault{c, 1, 0, Word{1} << 20}};
        expectIdentical(faulted, prog, nullptr, 0, 0, 10'000,
                        "upset at cycle " + std::to_string(c));
    }
}

/** Compiled workloads, driven from workloadNames() rather than a
 *  hard-coded kernel list: every kernel the compiler accepts on the
 *  paper-prototype fabric and on the 10x10 evaluation fabric must be
 *  path-equivalent, scratchpad included, and the event path may
 *  never tick more PEs than the reference.  A third fabric adds the
 *  seeded fault plan Placement.MatchesPinnedLayouts compiles for (3
 *  dead PEs, 1 dead link), over the kernels it pins there.  Both
 *  machines start from the same garbage-filled scratchpad, so a
 *  kernel that reads a word prepare() did not set fails
 *  validation. */
TEST(HotpathEquivalence, CompiledWorkloadsRefVsEvent)
{
    MachineConfig faulted = evalFabric();
    faulted.faults = FaultPlan::seeded(10, 10, 3, 1, 1);
    const struct
    {
        MachineConfig config;
        std::vector<std::string> kernels;
        int minCovered;
    } fabrics[] = {
        {MachineConfig{}, workloadNames(), 2}, // SI, CRC fit it.
        {evalFabric(), workloadNames(), 10},
        {faulted, {"SI", "CRC", "SCD", "ADPCM", "NW"}, 5},
    };
    for (const auto &fabric : fabrics) {
        const MachineConfig &config = fabric.config;
        const int words = static_cast<int>(config.scratchpadBytes /
                                           sizeof(Word));
        Compiler compiler(config);
        int covered = 0;
        for (const std::string &name : fabric.kernels) {
            CompileResult r = compiler.compile(name);
            if (!r.ok())
                continue; // too big for the fabric, or unsupported.
            ++covered;
            RunCapture caps[2];
            for (int i = 0; i < 2; ++i) {
                MachineConfig variant = config;
                variant.eventDrivenSim = i == 1;
                MarionetteMachine m(variant);
                m.scratchpad().fill(0, words, 0x5a5a5a5a);
                r.kernel->prepare(m);
                caps[i].result = m.run(r.kernel->cycleBudget);
                caps[i].stats = m.renderAllStats();
                caps[i].memDump = m.scratchpad().dump(0, words);
                EXPECT_EQ(r.kernel->validate(m, caps[i].result), "")
                    << name;
            }
            expectSame(caps[0], caps[1], name);
            EXPECT_LE(caps[1].result.peTicks, caps[0].result.peTicks)
                << name;
        }
        EXPECT_GE(covered, fabric.minCovered);
    }
}

/** The event path's host work on the serve mix's sparse kernels:
 *  PE ticks per simulated cycle on the evaluation fabric, bounded at
 *  the measured value + 5 %.  Ticks are deterministic, so a lost
 *  wake filter (a PE woken by events that cannot move it) fails
 *  here, not just in a timing benchmark. */
TEST(HotpathEquivalence, ServeMixTicksPerCycle)
{
    const struct
    {
        const char *kernel;
        double measured;
    } bounds[] = {
        {"CRC", 1.746},
        {"SCD", 12.363},
        {"ADPCM", 1.930},
    };
    const MachineConfig config = evalFabric();
    Compiler compiler(config);
    for (const auto &bound : bounds) {
        CompileResult r = compiler.compile(bound.kernel);
        ASSERT_TRUE(r.ok()) << bound.kernel;
        MarionetteMachine m(config);
        r.kernel->prepare(m);
        const RunResult run = m.run(r.kernel->cycleBudget);
        ASSERT_TRUE(run.ok()) << bound.kernel;
        const double per_cycle =
            static_cast<double>(run.peTicks) /
            static_cast<double>(run.cycles);
        EXPECT_LE(per_cycle, bound.measured * 1.05)
            << bound.kernel << " ticks " << run.peTicks << " over "
            << run.cycles << " cycles";
    }
}

} // namespace
} // namespace marionette

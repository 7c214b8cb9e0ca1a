/**
 * @file
 * Byte-identity of the steady-state fast-forward engine and the
 * machine snapshot/restore machinery (sim/fastforward.h,
 * MarionetteMachine::snapshot).
 *
 * Fast-forward is only allowed to *skip* work it has proven
 * redundant, so every observable — RunResult, the full
 * renderAllStats() dump, output streams and scratchpad contents —
 * must be byte-identical with the engine on or off.  The suite
 * checks that three ways:
 *
 *  - every compiled Table-5 workload (driven from workloadNames(),
 *    never a hard-coded list) runs on the reference path, the
 *    event-driven path and the event-driven path with fast-forward
 *    armed, and all three captures match byte for byte;
 *  - a synthetic steady-loop kernel with route-style phase metadata
 *    actually *engages* (engagements > 0, a large skipped span) and
 *    still matches the plain run exactly;
 *  - the decline conditions hold: while-form phases, faulted
 *    configs and scheduled transient upsets never engage.
 *
 * Snapshot/restore must be bit-identical to preparing from scratch:
 * restoring a post-prepare checkpoint into the same or a fresh
 * machine reproduces the straight run exactly, which is what lets
 * the serving core's SnapshotCache warm-start repeated requests.
 */

#include <gtest/gtest.h>

#include <functional>
#include <string>
#include <vector>

#include "arch/machine.h"
#include "compiler/compiler.h"
#include "compiler/program_builder.h"
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
    FastForwardStats ff;
};

/** Load + optional setup, run, capture everything observable. */
RunCapture
runProgram(const MachineConfig &config, const Program &prog,
           const std::function<void(MarionetteMachine &)> &setup =
               nullptr,
           Cycle max_cycles = 2'000'000)
{
    MarionetteMachine m(config);
    m.load(prog);
    if (setup)
        setup(m);
    RunCapture cap;
    cap.result = m.run(max_cycles);
    cap.stats = m.renderAllStats();
    cap.memDump = m.scratchpad().dump(
        0, static_cast<int>(config.scratchpadBytes /
                            sizeof(Word)));
    cap.ff = m.fastForwardStats();
    return cap;
}

/** prepare() + run + capture, for compiled kernels. */
RunCapture
runKernel(const MachineConfig &config, const CompiledKernel &kernel)
{
    MarionetteMachine m(config);
    kernel.prepare(m);
    RunCapture cap;
    cap.result = m.run(kernel.cycleBudget);
    cap.stats = m.renderAllStats();
    cap.memDump = m.scratchpad().dump(
        0, static_cast<int>(config.scratchpadBytes /
                            sizeof(Word)));
    cap.ff = m.fastForwardStats();
    EXPECT_EQ(kernel.validate(m, cap.result), "")
        << kernel.workload;
    return cap;
}

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

/** The {reference, event, event + fast-forward} matrix over every
 *  compilable workload.  Fast-forward typically declines on real
 *  kernels (memory ops are outside the whitelist) — the point here
 *  is that armed-but-declining is still byte-identical. */
TEST(FastForwardEquivalence, CompiledKernelsThreeWayByteIdentity)
{
    const MachineConfig base = evalFabric();
    Compiler compiler(base);
    int covered = 0;
    for (const std::string &name : workloadNames()) {
        CompileResult r = compiler.compile(name);
        if (!r.ok())
            continue; // unsupported kernels are someone else's test.
        ++covered;

        MachineConfig ref = base;
        ref.eventDrivenSim = false;
        ref.fastForward = false;
        MachineConfig event = base;
        event.eventDrivenSim = true;
        event.fastForward = false;
        MachineConfig event_ff = base;
        event_ff.eventDrivenSim = true;
        event_ff.fastForward = true;

        RunCapture a = runKernel(ref, *r.kernel);
        RunCapture b = runKernel(event, *r.kernel);
        RunCapture c = runKernel(event_ff, *r.kernel);
        expectSame(a, b, name + " ref-vs-event");
        expectSame(b, c, name + " event-vs-ff");
        // Disabled configs must not even instantiate the engine.
        EXPECT_EQ(a.ff.probes, 0u) << name;
        EXPECT_EQ(b.ff.probes, 0u) << name;
    }
    // The committed supported-workload floor (compile_pipeline_test
    // pins the exact matrix; we only guard against silently running
    // an empty loop).
    EXPECT_GE(covered, 10);
}

/**
 * A long counted steady loop with route-style phase metadata — the
 * shape fast-forward exists for.  Generator -> two-stage add chain
 * -> output, II = 1: after the pipeline fill every cycle is a
 * shifted repeat, so the engine must engage and skip nearly the
 * whole run while staying byte-identical.
 */
Program
steadyLoopProgram(const MachineConfig &config, Word bound,
                  bool counted = true)
{
    ProgramBuilder b("steady", config);
    b.setNumOutputs(1);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = bound;
    gen.pipelineII = 1;
    gen.dests = {DestSel::toPe(1, 0)};
    b.setEntry(0, 0);
    Instruction &add1 = b.place(1, 0);
    add1.mode = SenderMode::Dfg;
    add1.op = Opcode::Add;
    add1.a = OperandSel::channel(0);
    add1.b = OperandSel::immediate(7);
    add1.dests = {DestSel::toPe(2, 0)};
    b.setEntry(1, 0);
    Instruction &add2 = b.place(2, 0);
    add2.mode = SenderMode::Dfg;
    add2.op = Opcode::Add;
    add2.a = OperandSel::channel(0);
    add2.b = OperandSel::immediate(1000);
    add2.dests = {DestSel::toOutput(0)};
    b.setEntry(2, 0);
    Program prog = b.finish();

    // The metadata the route pass would have attached: one counted
    // phase, fully pipelined (II = 1 -> steadyWindow = 1).
    PhaseInfo phase;
    phase.generator = 0;
    phase.trips = bound;
    phase.recurrenceII = 1;
    phase.fillLatency = 8;
    phase.steadyWindow = 1;
    phase.counted = counted;
    prog.phases = {phase};
    return prog;
}

TEST(FastForwardEquivalence, SteadyLoopEngagesAndMatches)
{
    MachineConfig config;
    const Word bound = 60'000;
    Program prog = steadyLoopProgram(config, bound);

    MachineConfig off = config;
    off.fastForward = false;
    MachineConfig on = config;
    on.fastForward = true;

    RunCapture plain = runProgram(off, prog);
    RunCapture ff = runProgram(on, prog);
    expectSame(plain, ff, "steady-loop");
    ASSERT_TRUE(ff.result.finished);
    EXPECT_EQ(ff.result.outputs.size(), 1u);
    EXPECT_EQ(ff.result.outputs[0].size(),
              static_cast<std::size_t>(bound));

    // The engine must have actually jumped, and the jump must cover
    // the overwhelming share of the run (this is where the 10x
    // lives — see BENCH_hotpath.json for the wall-clock ladder).
    EXPECT_EQ(plain.ff.probes, 0u);
    EXPECT_GE(ff.ff.engagements, 1u);
    EXPECT_GT(ff.ff.cyclesSkipped,
              ff.result.cycles * 9 / 10);

    // The same program also fast-forwards on the reference path:
    // the engine hooks the shared run loop, not the worklist.
    MachineConfig ref_on = config;
    ref_on.eventDrivenSim = false;
    ref_on.fastForward = true;
    RunCapture ref_ff = runProgram(ref_on, prog);
    expectSame(plain, ref_ff, "steady-loop ref+ff");
    EXPECT_GE(ref_ff.ff.engagements, 1u);
}

TEST(FastForwardEquivalence, WhileFormPhaseDeclines)
{
    // Identical machine state, but the metadata says the trip count
    // is dynamic (while-form lowering): the engine must never even
    // probe the phase, and the run must match the engine-off run.
    MachineConfig config;
    Program prog =
        steadyLoopProgram(config, 5'000, /*counted=*/false);

    MachineConfig off = config;
    off.fastForward = false;
    RunCapture plain = runProgram(off, prog);
    RunCapture ff = runProgram(config, prog);
    expectSame(plain, ff, "while-form");
    EXPECT_EQ(ff.ff.engagements, 0u);
    EXPECT_EQ(ff.ff.cyclesSkipped, 0u);
}

TEST(FastForwardEquivalence, FaultedConfigNeverArms)
{
    // Any hardware fault disarms the engine outright (fault
    // delivery is scheduled in real cycles; skipping could miss
    // one).  A dead corner PE the program never uses keeps the
    // run's behaviour identical, so byte-identity is checkable too.
    MachineConfig config;
    config.faults.deadPes = {
        static_cast<PeId>(config.numPes() - 1)};
    Program prog = steadyLoopProgram(config, 5'000);

    MachineConfig off = config;
    off.fastForward = false;
    RunCapture plain = runProgram(off, prog);
    RunCapture ff = runProgram(config, prog);
    expectSame(plain, ff, "faulted");
    EXPECT_EQ(ff.ff.probes, 0u);
    EXPECT_EQ(ff.ff.engagements, 0u);
}

TEST(FastForwardEquivalence, TransientUpsetNeverArms)
{
    MachineConfig config;
    TransientFault upset;
    upset.cycle = 100;
    upset.pe = static_cast<PeId>(config.numPes() - 1);
    upset.channel = 0;
    upset.xorMask = 0x1;
    config.faults.transients = {upset};
    Program prog = steadyLoopProgram(config, 5'000);

    MachineConfig off = config;
    off.fastForward = false;
    RunCapture plain = runProgram(off, prog);
    RunCapture ff = runProgram(config, prog);
    expectSame(plain, ff, "transient-upset");
    EXPECT_EQ(ff.ff.probes, 0u);
    EXPECT_EQ(ff.ff.engagements, 0u);
}

/** Restoring a post-prepare checkpoint — into the same machine
 *  after a run, or into a fresh machine — reproduces the straight
 *  prepare-and-run byte for byte. */
TEST(FastForwardEquivalence, SnapshotRestoreDeterminism)
{
    MachineConfig config; // paper-prototype defaults.
    CompileResult r = Compiler(config).compile("SI");
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

    // A snapshot of a restored machine is as good as the original.
    MarionetteMachine c(config);
    c.restore(snap);
    MachineSnapshot resnap = c.snapshot();
    MarionetteMachine d(config);
    d.restore(resnap);
    RunCapture chained = capture(d);
    expectSame(straight, chained, "snapshot-of-restore");
}

} // namespace
} // namespace marionette

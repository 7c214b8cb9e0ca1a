/**
 * @file
 * Fault-injection and resilience tests: seeded FaultPlan
 * determinism, the dead-PE refusal path, the stranded-word
 * watchdog (structured deadlock instead of a hang), zero-fault
 * byte-identity across the whole kernel suite, the fault-aware
 * re-place/re-route acceptance criterion, the discovery-mode retry
 * loop, sweep exception safety, scheduled transient upsets, and
 * wild scratchpad addresses and out-of-range control words ending a
 * run with a structured error.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <stdexcept>

#include "compiler/compiler.h"
#include "compiler/program_builder.h"
#include "compiler/program_cache.h"
#include "sim/sweep.h"
#include "workloads/workload.h"

namespace marionette
{
namespace
{

TEST(FaultPlan, SeededIsDeterministic)
{
    FaultPlan a = FaultPlan::seeded(10, 10, 4, 2, 7);
    FaultPlan b = FaultPlan::seeded(10, 10, 4, 2, 7);
    ASSERT_EQ(a.deadPes.size(), 4u);
    ASSERT_EQ(a.deadLinks.size(), 2u);
    EXPECT_EQ(a.deadPes, b.deadPes);
    ASSERT_EQ(a.deadLinks.size(), b.deadLinks.size());
    for (std::size_t i = 0; i < a.deadLinks.size(); ++i) {
        EXPECT_EQ(a.deadLinks[i].a, b.deadLinks[i].a);
        EXPECT_EQ(a.deadLinks[i].b, b.deadLinks[i].b);
    }
    EXPECT_EQ(faultPlanHash(a), faultPlanHash(b));

    // A different seed draws a different plan (hash collision over
    // two specific seeds would be astronomically unlucky).
    FaultPlan c = FaultPlan::seeded(10, 10, 4, 2, 8);
    EXPECT_NE(faultPlanHash(a), faultPlanHash(c));

    // The plan is well-formed for its fabric.
    a.validate(10, 10);
}

TEST(FaultPlan, IsolatedPeJoinsEffectiveDeadSet)
{
    // Cut both incident links of corner PE 0 on a 10x10: the tile
    // is physically intact but can neither receive nor deliver, so
    // the compiler must treat it as dead.
    FaultPlan plan;
    plan.deadLinks = {DeadLink{0, 1}, DeadLink{0, 10}};
    std::vector<PeId> dead = plan.effectiveDeadPes(10, 10);
    EXPECT_NE(std::find(dead.begin(), dead.end(), 0), dead.end());
    EXPECT_EQ(dead.size(), 1u);
}

TEST(Machine, RefusesProgramTargetingDeadPe)
{
    MachineConfig config; // 4x4 default.
    config.faults.deadPes = {5};
    ProgramBuilder b("dead_target", config);
    b.setNumOutputs(1);
    Instruction &gen = b.place(5, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = 4;
    gen.dests = {DestSel::toOutput(0)};
    b.setEntry(5, 0);

    MarionetteMachine machine(config);
    machine.load(b.finish());
    RunResult run = machine.run(10'000);
    EXPECT_FALSE(run.ok());
    EXPECT_EQ(run.error, RunError::DeadPe);
    EXPECT_EQ(run.faultPe, 5);
    EXPECT_NE(run.errorDetail.find("dead PE 5"), std::string::npos)
        << run.errorDetail;
}

/** The event-driven run (index 0) and the reference run (index 1)
 *  ended the same way. */
void
expectPathsAgree(const RunResult (&runs)[2], const std::string (&stats)[2])
{
    EXPECT_EQ(runs[1].error, runs[0].error);
    EXPECT_EQ(runs[1].faultPe, runs[0].faultPe);
    EXPECT_EQ(runs[1].errorDetail, runs[0].errorDetail);
    EXPECT_EQ(runs[1].cycles, runs[0].cycles);
    EXPECT_EQ(runs[1].outputs, runs[0].outputs);
    EXPECT_EQ(stats[1], stats[0]);
}

/** A Load or Store outside the scratchpad ends the run at that
 *  cycle's boundary with a structured BadAddress naming the issuing
 *  PE and the address, identically on both run paths; the access
 *  reads 0 or writes nothing. */
TEST(Machine, WildAddressIsAStructuredError)
{
    MachineConfig config; // 4x4 default.
    const Word words = config.scratchpadBytes / 4;
    const struct
    {
        Opcode op;
        Word addr;
        std::string detail;
    } cases[] = {
        {Opcode::Load, -1, "PE 1 load of word -1 outside the " +
                               std::to_string(words) +
                               "-word scratchpad"},
        {Opcode::Store, words,
         "PE 1 store of word " + std::to_string(words)},
    };
    for (const auto &c : cases) {
        ProgramBuilder b("wild", config);
        b.setNumOutputs(1);
        Instruction &in = b.place(1, 0);
        in.mode = SenderMode::Dfg;
        in.op = c.op;
        in.a = OperandSel::channel(0);
        if (c.op == Opcode::Store)
            in.b = OperandSel::channel(1);
        in.dests = {DestSel::toOutput(0)};
        b.setEntry(1, 0);
        Program program = b.finish();

        RunResult runs[2];
        std::string stats[2];
        for (int i = 0; i < 2; ++i) {
            MachineConfig run_config = config;
            run_config.eventDrivenSim = i == 0;
            MarionetteMachine machine(run_config);
            machine.load(program);
            machine.injectData(1, 0, c.addr);
            machine.injectData(1, 1, 42);
            runs[i] = machine.run(10'000);
            stats[i] = machine.renderAllStats();
            EXPECT_EQ(machine.scratchpad().dump(0, words),
                      std::vector<Word>(static_cast<std::size_t>(words)))
                << c.detail;
        }
        EXPECT_EQ(runs[0].error, RunError::BadAddress) << c.detail;
        EXPECT_STREQ(runErrorName(runs[0].error), "bad_address");
        EXPECT_EQ(runs[0].faultPe, 1);
        EXPECT_NE(runs[0].errorDetail.find(c.detail), std::string::npos)
            << runs[0].errorDetail;
        EXPECT_LT(runs[0].cycles, 10u);
        EXPECT_TRUE(runs[0].outputs[0].empty()) << c.detail;
        expectPathsAgree(runs, stats);
    }
}

/** A control word addressed outside the array ends the run at that
 *  cycle's boundary with a structured BadProgram naming the sender,
 *  identically on both run paths and whether the word would cross
 *  the control network or the mesh; the word is never scheduled.
 *  ProgramBuilder rejects such a destination, but a decoded or
 *  patched program can carry one. */
TEST(Machine, OutOfRangeControlWordIsAStructuredError)
{
    MachineConfig config; // 4x4 default.
    ProgramBuilder b("wild_ctrl", config);
    b.setNumOutputs(1);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = 4;
    gen.dests = {DestSel::toOutput(0)};
    gen.loopExitAddr = 0;
    gen.ctrlDests = {1};
    b.setEntry(0, 0);
    Instruction &next = b.place(1, 0);
    next.mode = SenderMode::LoopOp;
    next.op = Opcode::Loop;
    next.loopStart = 10;
    next.loopBound = 12;
    next.dests = {DestSel::toOutput(0)};
    const Program chained = b.finish();
    const std::vector<Word> first_round = {0, 1, 2, 3};

    for (bool network : {true, false}) {
        SCOPED_TRACE(network ? "control network" : "mesh-routed");
        MachineConfig net_config = config;
        net_config.features.controlNetwork = network;
        {
            MarionetteMachine machine(net_config);
            machine.load(chained);
            RunResult run = machine.run(10'000);
            ASSERT_TRUE(run.ok()) << run.errorDetail;
            EXPECT_EQ(run.outputs[0],
                      (std::vector<Word>{0, 1, 2, 3, 10, 11}));
            EXPECT_EQ(machine.stats().value("ctrl_words"), 1u);
        }
        for (PeId dst : {config.numPes(),
                         config.numPes() + config.controlFifoCount + 1,
                         PeId{-1}}) {
            SCOPED_TRACE(dst);
            Program program = chained;
            for (PeProgram &p : program.pes)
                if (p.pe == 0)
                    p.instrs[0].ctrlDests = {dst};
            RunResult runs[2];
            std::string stats[2];
            for (int i = 0; i < 2; ++i) {
                MachineConfig run_config = net_config;
                run_config.eventDrivenSim = i == 0;
                MarionetteMachine machine(run_config);
                machine.load(program);
                runs[i] = machine.run(10'000);
                stats[i] = machine.renderAllStats();
                EXPECT_EQ(machine.stats().value("ctrl_words"), 0u);
            }
            EXPECT_EQ(runs[0].error, RunError::BadProgram);
            EXPECT_EQ(runs[0].faultPe, 0);
            EXPECT_EQ(runs[0].errorDetail,
                      "control word to out-of-range PE " +
                          std::to_string(dst));
            EXPECT_LT(runs[0].cycles, 20u);
            EXPECT_EQ(runs[0].outputs[0], first_round);
            expectPathsAgree(runs, stats);
        }
    }
}

/** The PR-4 bug shape: a word launched toward a destination the
 *  dead links disconnect.  The machine must end in bounded time
 *  with a structured deadlock naming the lost word's endpoints —
 *  never a hang, never a silent wrong answer. */
TEST(Machine, StrandedWordIsAStructuredDeadlock)
{
    MachineConfig config;
    config.rows = 1;
    config.cols = 4;
    // Cutting link 1-2 splits the row into {0,1} | {2,3} without
    // isolating any single PE (so no PE joins the effective dead
    // set and the program still boots).
    config.faults.deadLinks = {DeadLink{1, 2}};

    ProgramBuilder b("cut_row", config);
    b.setNumOutputs(1);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 7;
    gen.loopBound = 8;
    gen.loopStep = 1;
    gen.pipelineII = 1;
    gen.dests = {DestSel::toPe(2, 0)};
    b.setEntry(0, 0);
    Instruction &sink = b.place(2, 0);
    sink.mode = SenderMode::Dfg;
    sink.op = Opcode::Copy;
    sink.a = OperandSel::channel(0);
    sink.dests = {DestSel::toOutput(0)};
    b.setEntry(2, 0);
    Program program = b.finish();

    for (bool event_driven : {true, false}) {
        MachineConfig run_config = config;
        run_config.eventDrivenSim = event_driven;
        MarionetteMachine machine(run_config);
        machine.load(program);
        RunResult run = machine.run(10'000);
        EXPECT_FALSE(run.ok());
        EXPECT_EQ(run.error, RunError::Deadlock);
        EXPECT_LT(run.cycles, 10'000u)
            << "the watchdog must not burn the whole budget";
        EXPECT_EQ(run.faultLinkSrc, 0);
        EXPECT_EQ(run.faultLinkDst, 2);
        EXPECT_NE(run.errorDetail.find("lost"), std::string::npos)
            << run.errorDetail;
        EXPECT_EQ(machine.mesh().droppedWords(), 1u);
    }
}

/** An empty FaultPlan (and the watchdog itself) must leave every
 *  healthy kernel's run byte-identical: same RunResult fields, same
 *  rendered stats.  Sweeps with fault injection wired in but zero
 *  faults drawn are exactly the pre-fault simulator. */
TEST(FaultPlan, ZeroFaultsIsByteIdentical)
{
    MachineConfig clean = evalFabric();
    MachineConfig zero = evalFabric();
    zero.faults = FaultPlan::seeded(10, 10, 0, 0, 99);
    ASSERT_TRUE(zero.faults.empty());
    zero.watchdogCycles = 0; // watchdog off: same results.

    int compared = 0;
    for (const Workload *w : allWorkloads()) {
        CompileResult r = Compiler(clean).compile(*w);
        if (!r.ok())
            continue; // MS/FFT reject fault-free; nothing to run.
        MarionetteMachine a(clean);
        r.kernel->prepare(a);
        RunResult ra = a.run(r.kernel->cycleBudget);

        CompileResult r2 = Compiler(zero).compile(*w);
        ASSERT_TRUE(r2.ok()) << w->name();
        MarionetteMachine m(zero);
        r2.kernel->prepare(m);
        RunResult rb = m.run(r2.kernel->cycleBudget);

        EXPECT_EQ(ra.cycles, rb.cycles) << w->name();
        EXPECT_EQ(ra.finished, rb.finished) << w->name();
        EXPECT_EQ(ra.outputs, rb.outputs) << w->name();
        EXPECT_EQ(ra.totalFires, rb.totalFires) << w->name();
        EXPECT_EQ(ra.error, rb.error) << w->name();
        EXPECT_EQ(a.renderAllStats(), m.renderAllStats())
            << w->name();
        ++compared;
    }
    EXPECT_EQ(compared, 11) << "all bit-exact kernels compared";
}

/** The resilience guarantee: with 2 dead PEs and 1 dead link
 *  on the 10x10 fabric, every kernel either compiles around the
 *  faults and stays bit-exact vs its golden, or rejects with a
 *  pass-attributed "unmappable under faults" diagnostic. */
TEST(FaultPlan, KernelsSurviveTwoDeadPesAndADeadLink)
{
    MachineConfig clean = evalFabric();
    MachineConfig faulted = evalFabric();
    faulted.faults = FaultPlan::seeded(10, 10, 2, 1, 1);
    ASSERT_EQ(faulted.faults.deadPes.size(), 2u);
    ASSERT_EQ(faulted.faults.deadLinks.size(), 1u);

    for (const Workload *w : allWorkloads()) {
        bool clean_ok = Compiler(clean).compile(*w).ok();
        CompileResult r = Compiler(faulted).compile(*w);
        if (!r.ok()) {
            if (clean_ok)
                EXPECT_NE(r.report.reason.find(
                              "unmappable under faults"),
                          std::string::npos)
                    << w->name() << ": " << r.report.reason;
            continue;
        }
        MarionetteMachine machine(faulted);
        r.kernel->prepare(machine);
        RunResult run = machine.run(r.kernel->cycleBudget);
        EXPECT_TRUE(run.ok())
            << w->name() << ": " << run.errorDetail;
        EXPECT_EQ(r.kernel->validate(machine, run), "")
            << w->name();
    }
}

/** Fault-aware compiles run event-driven and reference paths
 *  bit-identically, like healthy ones. */
TEST(FaultPlan, FaultedRunPathsAgree)
{
    MachineConfig faulted = evalFabric();
    faulted.faults = FaultPlan::seeded(10, 10, 2, 1, 1);
    for (const char *name : {"NW", "CRC"}) {
        CompileResult r = Compiler(faulted).compile(name);
        ASSERT_TRUE(r.ok()) << name;
        RunResult runs[2];
        std::string stats[2];
        for (int i = 0; i < 2; ++i) {
            MachineConfig config = faulted;
            config.eventDrivenSim = i == 0;
            MarionetteMachine machine(config);
            r.kernel->prepare(machine);
            runs[i] = machine.run(r.kernel->cycleBudget);
            stats[i] = machine.renderAllStats();
        }
        EXPECT_TRUE(runs[0].ok()) << runs[0].errorDetail;
        EXPECT_EQ(runs[0].cycles, runs[1].cycles) << name;
        EXPECT_EQ(runs[0].outputs, runs[1].outputs) << name;
        EXPECT_EQ(stats[0], stats[1]) << name;
    }
}

/** A transient upset can turn a data word into a wild address.  The
 *  upsets hit the address channel (channel 0) of a Load PE that the
 *  compiled LDPC program names, one high bit each, so the plan keeps
 *  its aim through any re-placement.  The run ends with a structured
 *  BadAddress at that PE, identically on both run paths, instead of
 *  aborting the process. */
TEST(FaultPlan, UpsetAddressEndsTheRunOnBothPaths)
{
    MachineConfig upset = evalFabric();
    CompileResult r = Compiler(upset).compile("LDPC");
    ASSERT_TRUE(r.ok()) << r.report.toString();
    PeId load = invalidPe;
    for (const PeProgram &p : r.kernel->program.pes)
        for (const Instruction &in : p.instrs)
            if (load == invalidPe && in.op == Opcode::Load &&
                in.a == OperandSel::channel(0))
                load = p.pe;
    ASSERT_NE(load, invalidPe);
    // One upset a cycle, each on the next of bits 20..30: a word that
    // waits at the channel head through up to 11 of them still
    // addresses past the 131 072-word scratchpad.
    for (int i = 0; i < 400; ++i)
        upset.faults.transients.push_back(
            TransientFault{static_cast<Cycle>(20 + i), load, 0,
                           Word{1} << (20 + i % 11)});
    RunResult runs[2];
    std::string stats[2];
    for (int i = 0; i < 2; ++i) {
        MachineConfig config = upset;
        config.eventDrivenSim = i == 0;
        MarionetteMachine machine(config);
        r.kernel->prepare(machine);
        runs[i] = machine.run(r.kernel->cycleBudget);
        stats[i] = machine.renderAllStats();
    }
    EXPECT_EQ(runs[0].error, RunError::BadAddress) << runs[0].errorDetail;
    EXPECT_NE(runs[0].errorDetail.find("PE " + std::to_string(load) +
                                       " load of word"),
              std::string::npos)
        << runs[0].errorDetail;
    EXPECT_EQ(runs[0].faultPe, load);
    expectPathsAgree(runs, stats);
}

/** Discovery mode: kill a PE the fault-oblivious mapping actually
 *  uses, then watch the sweep retry — re-place/re-route against the
 *  discovered plan — and recover bit-exact. */
TEST(Sweep, RetryRecompilesAroundDiscoveredFaults)
{
    MachineConfig clean = evalFabric();
    const Workload *nw = findWorkload("NW");
    ASSERT_NE(nw, nullptr);
    CompileResult oblivious = Compiler(clean).compile(*nw);
    ASSERT_TRUE(oblivious.ok());
    // Any PE the clean mapping programs (skip the entry generator's
    // PE 0 so the kernel surely still fits elsewhere).
    PeId victim = invalidPe;
    for (const PeProgram &p : oblivious.kernel->program.pes)
        if (p.pe != 0) {
            victim = p.pe;
            break;
        }
    ASSERT_NE(victim, invalidPe);

    MachineConfig faulted = clean;
    faulted.faults.deadPes = {victim};
    KernelSweepJob job{nw, faulted};
    job.discoverFaults = true;

    SweepRunner runner(1);
    ProgramCache cache;
    std::vector<KernelSweepResult> results =
        runner.runKernels({job}, cache);
    ASSERT_EQ(results.size(), 1u);
    const KernelSweepResult &r = results[0];
    EXPECT_TRUE(r.jobError.empty()) << r.jobError;
    EXPECT_TRUE(r.compiled);
    EXPECT_EQ(r.retries, 1);
    EXPECT_TRUE(r.recompiled);
    EXPECT_NE(r.firstError.find("dead_pe"), std::string::npos)
        << r.firstError;
    EXPECT_TRUE(r.validated) << r.validationError;
    EXPECT_TRUE(r.run.ok()) << r.run.errorDetail;

    KernelSweepStats stats = summarizeKernelSweep(results);
    EXPECT_EQ(stats.retried, 1);
    EXPECT_EQ(stats.recoveredByRecompile, 1);
}

/** Discovery mode for an unrolled kernel: GEMM replicates its
 *  i_loop body 8 ways across the fabric, so a dead PE is very
 *  likely to land under one of the replicas.  The retry must
 *  re-place/re-route the replicated program around the discovered
 *  fault and come back bit-exact — replication and fault recovery
 *  compose. */
TEST(Sweep, RetryRecoversUnrolledKernel)
{
    MachineConfig clean = evalFabric();
    const Workload *gemm = findWorkload("GEMM");
    ASSERT_NE(gemm, nullptr);
    CompileResult oblivious = Compiler(clean).compile(*gemm);
    ASSERT_TRUE(oblivious.ok());
    // The auto-unrolled mapping covers 81/100 PEs; pick a used PE
    // (not the entry generator's) as the victim so the oblivious
    // program surely trips over it.
    ASSERT_GT(oblivious.kernel->program.pes.size(), 50u)
        << "GEMM is expected to replicate across most of the "
           "fabric";
    PeId victim = invalidPe;
    for (const PeProgram &p : oblivious.kernel->program.pes)
        if (p.pe != 0) {
            victim = p.pe;
            break;
        }
    ASSERT_NE(victim, invalidPe);

    MachineConfig faulted = clean;
    faulted.faults.deadPes = {victim};
    KernelSweepJob job{gemm, faulted};
    job.discoverFaults = true;

    SweepRunner runner(1);
    ProgramCache cache;
    std::vector<KernelSweepResult> results =
        runner.runKernels({job}, cache);
    ASSERT_EQ(results.size(), 1u);
    const KernelSweepResult &r = results[0];
    EXPECT_TRUE(r.jobError.empty()) << r.jobError;
    EXPECT_TRUE(r.compiled);
    EXPECT_EQ(r.retries, 1);
    EXPECT_TRUE(r.recompiled);
    EXPECT_TRUE(r.validated) << r.validationError;
    EXPECT_TRUE(r.run.ok()) << r.run.errorDetail;

    // The fault-aware recompile keeps replicating: the refined
    // plan still commits to a multi-way factor on the 99 alive
    // PEs rather than silently falling back to factor 1.
    CompileResult aware = Compiler(faulted).compile(*gemm);
    ASSERT_TRUE(aware.ok()) << aware.report.toString();
    bool replicated = false;
    for (const CompilerPassNote &n : aware.report.notes)
        replicated =
            replicated ||
            (n.pass == "lower" &&
             n.message.find("replicated x") != std::string::npos);
    EXPECT_TRUE(replicated) << aware.report.toString();
}

/** A workload whose CDFG construction throws, so its compile dies
 *  outside the compiler's own diagnostics. */
class ThrowingWorkload : public Workload
{
  public:
    std::string name() const override { return "THROW"; }
    std::string fullName() const override { return "throwing"; }
    std::string sizeDesc() const override { return "-"; }
    Cdfg
    buildCdfg() const override
    {
        throw std::runtime_error("injected job failure");
    }
    std::uint64_t runGolden(KernelRecorder &) const override
    {
        return 0;
    }
};

/** A throwing job must neither deadlock the pool nor lose the rest
 *  of the sweep: its error is recorded on its own result and the
 *  kernels on either side still compile, run and validate. */
TEST(Sweep, ThrowingJobDoesNotLoseTheSweep)
{
    const ThrowingWorkload throwing;
    for (int threads : {1, 4}) {
        std::vector<KernelSweepJob> jobs(3);
        jobs[0].workload = findWorkload("SI");
        jobs[1].workload = &throwing;
        jobs[2].workload = findWorkload("CRC");
        for (KernelSweepJob &job : jobs)
            job.config = evalFabric();
        ProgramCache cache;
        std::vector<KernelSweepResult> results =
            SweepRunner(threads).runKernels(jobs, cache);
        ASSERT_EQ(results.size(), 3u);
        EXPECT_TRUE(results[0].jobError.empty());
        EXPECT_EQ(results[1].jobError, "injected job failure");
        EXPECT_TRUE(results[2].jobError.empty());
        EXPECT_TRUE(results[0].validated)
            << results[0].validationError;
        EXPECT_TRUE(results[2].validated)
            << results[2].validationError;
        EXPECT_EQ(summarizeKernelSweep(results).jobErrors, 1);
    }
}

/** A scheduled transient upset corrupts exactly the head word of
 *  the target channel at its cycle and is counted in the stats;
 *  the rest of the run is untouched. */
TEST(Machine, TransientUpsetCorruptsOneWord)
{
    MachineConfig config; // 4x4 default.
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
    Program program = b.finish();

    MarionetteMachine clean(config);
    clean.load(program);
    RunResult clean_run = clean.run(10'000);
    ASSERT_TRUE(clean_run.ok());
    std::vector<Word> want = {0, 1, 2, 3};
    ASSERT_EQ(clean_run.outputs[0], want);

    // Probe one cycle at a time: an upset on a cycle where the
    // channel is empty is a no-op; on a cycle where a word is
    // queued it flips exactly that word's masked bit.  The sim is
    // deterministic, so some probe in the active window must land.
    // Bit 20 is outside the generated value range (0..3), so every
    // hit is visible in the output stream.
    const Word mask = Word{1} << 20;
    int hit_cycles = 0;
    for (Cycle c = 0; c < 64; ++c) {
        MachineConfig faulted = config;
        faulted.faults.transients = {TransientFault{c, 1, 0, mask}};
        MarionetteMachine machine(faulted);
        machine.load(program);
        RunResult run = machine.run(10'000);
        ASSERT_TRUE(run.ok()) << run.errorDetail;
        ASSERT_EQ(run.outputs[0].size(), 4u) << "cycle " << c;
        int corrupted = 0;
        for (std::size_t i = 0; i < 4; ++i) {
            Word got = run.outputs[0][i];
            EXPECT_TRUE(got == want[i] || got == (want[i] ^ mask))
                << "cycle " << c << " word " << i << " = " << got;
            if (got != want[i])
                ++corrupted;
        }
        if (corrupted == 0)
            continue;
        EXPECT_EQ(corrupted, 1) << "cycle " << c;
        ++hit_cycles;
        EXPECT_NE(
            machine.renderAllStats().find("transient_upsets"),
            std::string::npos);
    }
    EXPECT_GE(hit_cycles, 4)
        << "each queued word is exposed for at least one cycle";
}

} // namespace
} // namespace marionette

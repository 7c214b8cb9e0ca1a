/**
 * @file
 * Hot-path throughput of the cycle-accurate machine, reported as
 * simulated cycles per wall-clock second.
 *
 * Two extremes bracket the simulator's per-cycle cost:
 *
 *  - *idle-heavy*: a 16x16 array where only a 4-PE pipeline works
 *    and the other 252 PEs are unprogrammed.  This is the common
 *    shape of mapped kernels (most PEs idle most cycles) and the
 *    case activity-driven ticking targets.
 *  - *fully-active*: every PE of a 4x4 array fires every few
 *    cycles, so the active worklist is the whole array and the
 *    event-driven machinery must not cost anything.
 *
 * A third case runs compiled kernels: the serving benchmark's mix
 * (SI, CRC, SCD, ADPCM) on the 10x10 evaluation fabric, prepared
 * and run back to back on one machine, as a serving lane does.
 * Most of its PEs wait on a peer's data or control word, so it
 * measures how closely the simulator's cost tracks events.
 *
 * BENCH_hotpath.json records before/after numbers for the
 * simulator changes.
 */

#include "bench_common.h"

#include "compiler/program_builder.h"

namespace marionette
{
namespace
{

/** Loop generator -> 3-stage add chain -> output, on a big array. */
Program
idleHeavyKernel(const MachineConfig &config, Word iterations)
{
    ProgramBuilder b("idle_heavy", config);
    b.setNumOutputs(1);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = iterations;
    gen.dests = {DestSel::toPe(1, 0)};
    b.setEntry(0, 0);
    for (PeId pe = 1; pe <= 3; ++pe) {
        Instruction &in = b.place(pe, 0);
        in.mode = SenderMode::Dfg;
        in.op = Opcode::Add;
        in.a = OperandSel::channel(0);
        in.b = OperandSel::immediate(1);
        in.dests = {pe == 3 ? DestSel::toOutput(0)
                            : DestSel::toPe(pe + 1, 0)};
        b.setEntry(pe, 0);
    }
    return b.finish();
}

/** Every PE is a paced loop generator streaming to an output. */
Program
fullyActiveKernel(const MachineConfig &config, Word iterations)
{
    ProgramBuilder b("fully_active", config);
    b.setNumOutputs(config.numPes());
    for (PeId pe = 0; pe < config.numPes(); ++pe) {
        Instruction &gen = b.place(pe, 0);
        gen.mode = SenderMode::LoopOp;
        gen.op = Opcode::Loop;
        gen.loopStart = 0;
        gen.loopBound = iterations;
        gen.dests = {DestSel::toOutput(pe)};
        b.setEntry(pe, 0);
    }
    return b.finish();
}

MachineConfig
bigArrayConfig()
{
    MachineConfig config;
    config.rows = 16;
    config.cols = 16;
    config.nonlinearPes = 16;
    config.instrMemBytes = 64 * 1024;
    return config;
}

void
reportSimRate(benchmark::State &state, std::uint64_t sim_cycles)
{
    state.counters["sim_cycles_per_sec"] = benchmark::Counter(
        static_cast<double>(sim_cycles), benchmark::Counter::kIsRate);
}

void
BM_IdleHeavy(benchmark::State &state)
{
    MachineConfig config = bigArrayConfig();
    config.eventDrivenSim = state.range(0) != 0;
    Program prog = idleHeavyKernel(config, 50'000);
    MarionetteMachine m(config);
    std::uint64_t sim_cycles = 0;
    for (auto _ : state) {
        m.load(prog);
        RunResult r = m.run();
        sim_cycles += r.cycles;
        benchmark::DoNotOptimize(r.totalFires);
    }
    reportSimRate(state, sim_cycles);
}
BENCHMARK(BM_IdleHeavy)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"fast"})
    ->Unit(benchmark::kMillisecond);

void
BM_FullyActive(benchmark::State &state)
{
    MachineConfig config; // the 4x4 prototype.
    config.eventDrivenSim = state.range(0) != 0;
    Program prog = fullyActiveKernel(config, 50'000);
    MarionetteMachine m(config);
    std::uint64_t sim_cycles = 0;
    for (auto _ : state) {
        m.load(prog);
        RunResult r = m.run();
        sim_cycles += r.cycles;
        benchmark::DoNotOptimize(r.totalFires);
    }
    reportSimRate(state, sim_cycles);
}
BENCHMARK(BM_FullyActive)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"fast"})
    ->Unit(benchmark::kMillisecond);

void
BM_ServeMix(benchmark::State &state)
{
    MachineConfig config = evalFabric();
    config.eventDrivenSim = state.range(0) != 0;
    Compiler compiler(config);
    std::vector<CompileResult> kernels;
    for (const char *name : {"SI", "CRC", "SCD", "ADPCM"}) {
        kernels.push_back(compiler.compile(name));
        if (!kernels.back().ok()) {
            state.SkipWithError("serve-mix kernel failed to compile");
            return;
        }
    }
    MarionetteMachine m(config);
    std::uint64_t sim_cycles = 0;
    for (auto _ : state) {
        for (const CompileResult &k : kernels) {
            k.kernel->prepare(m);
            RunResult r = m.run(k.kernel->cycleBudget);
            sim_cycles += r.cycles;
            benchmark::DoNotOptimize(r.totalFires);
        }
    }
    reportSimRate(state, sim_cycles);
}
BENCHMARK(BM_ServeMix)
    ->Arg(0)
    ->Arg(1)
    ->ArgNames({"fast"})
    ->Unit(benchmark::kMillisecond);

void
printHotpath()
{
    std::printf("machine hot-path throughput: simulated cycles per "
                "wall-clock second\n(fast=0 reference tick-all "
                "loop, fast=1 activity-driven hot path)\n\n");
}

} // namespace
} // namespace marionette

MARIONETTE_BENCH_MAIN(marionette::printHotpath)

/**
 * @file
 * The CDFG->Program compiler pipeline as an artifact and a timing
 * target: prints the supported-workload matrix (which Table-5
 * kernels compile and run bit-exact on the cycle-accurate machine,
 * and why the rest are rejected), then times the pipeline itself —
 * a cold compile per kernel, a program-cache hit, and a full
 * compile+run+validate round trip.
 */

#include "bench_common.h"

namespace marionette
{

namespace
{

void
printMatrix()
{
    MachineConfig config = evalFabric();
    Compiler compiler(config);
    std::printf("== Compiler pipeline: supported-workload matrix "
                "(10x10, 512 KiB) ==\n");
    for (const Workload *w : allWorkloads()) {
        CompileResult r = compiler.compile(*w);
        if (r.ok())
            std::printf("  %-6s compiles (scheduled estimate "
                        "%.0f cycles)\n",
                        w->name().c_str(),
                        r.report.scheduledCycleEstimate);
        else
            std::printf("  %-6s rejected [%s] %s\n",
                        w->name().c_str(),
                        r.report.failedPass.c_str(),
                        r.report.reason.c_str());
    }
}

/** Cold compile (no cache): the whole pass pipeline per kernel. */
void
BM_CompileKernel(benchmark::State &state)
{
    const Workload *w = allWorkloads()[static_cast<std::size_t>(
        state.range(0))];
    MachineConfig config = evalFabric();
    Compiler compiler(config);
    for (auto _ : state) {
        CompileResult r = compiler.compile(*w);
        benchmark::DoNotOptimize(r.ok());
    }
    state.SetLabel(w->name());
}
BENCHMARK(BM_CompileKernel)->DenseRange(0, 12);

/** A warm program-cache lookup (the sweep steady state). */
void
BM_ProgramCacheHit(benchmark::State &state)
{
    MachineConfig config = evalFabric();
    ProgramCache cache;
    const Workload *w = findWorkload("CRC");
    cache.getOrCompile(*w, config); // prime.
    for (auto _ : state) {
        CompileResult r = cache.getOrCompile(*w, config);
        benchmark::DoNotOptimize(r.kernel.get());
    }
}
BENCHMARK(BM_ProgramCacheHit);

/** Compile + run + bit-exact validation, end to end. */
void
BM_CompileRunValidate(benchmark::State &state)
{
    MachineConfig config = evalFabric();
    ProgramCache cache;
    const Workload *w =
        findWorkload(state.range(0) == 0 ? "SI" : "CRC");
    for (auto _ : state) {
        CompileResult r = cache.getOrCompile(*w, config);
        MarionetteMachine machine(config);
        r.kernel->prepare(machine);
        RunResult run = machine.run(r.kernel->cycleBudget);
        bool exact = r.kernel->validate(machine, run).empty();
        benchmark::DoNotOptimize(exact);
    }
    state.SetLabel(w->name());
}
BENCHMARK(BM_CompileRunValidate)->Arg(0)->Arg(1);

} // namespace
} // namespace marionette

MARIONETTE_BENCH_MAIN(marionette::printMatrix)

/**
 * @file
 * Fault-resilience artifact: survival of the Table-5 kernels on a
 * 10x10 fabric with seeded dead PEs and dead mesh links, plus
 * google-benchmark timings of the machinery behind it — the
 * fault-aware compile (placement excludes dead PEs, routing detours
 * around dead links), the discovery-mode retry (fault-oblivious
 * compile, structured run error, re-place/re-route, rerun), and the
 * watchdog's bounded-time detection of a stranded word.
 *
 * The printed table is the BENCH_resilience.json companion (the
 * full grid is produced by `paper_eval --faults`); the timings
 * answer "what does resilience cost": a fault-aware compile is the
 * same pass pipeline with a smaller PE pool, and the watchdog adds
 * nothing to healthy runs (zero-fault byte-identity is enforced by
 * tests/fault_resilience_test.cc).
 */

#include "bench_common.h"

#include "compiler/program_builder.h"
#include "compiler/program_cache.h"
#include "sim/sweep.h"
#include "workloads/workload.h"

namespace marionette
{
namespace
{

MachineConfig
faultedFabric(int dead_pes, int dead_links)
{
    MachineConfig config = evalFabric();
    config.faults = FaultPlan::seeded(config.rows, config.cols,
                                      dead_pes, dead_links, 1);
    return config;
}

void
printSurvivalTable()
{
    bench::banner(
        "Fault resilience: kernel survival under seeded faults "
        "(10x10, seed 1)",
        "n/a — robustness artifact (paper fabric, injected "
        "faults)");

    const std::pair<int, int> cells[] = {
        {0, 0}, {2, 0}, {2, 1}, {4, 2}, {8, 4}};
    SweepRunner runner;
    ProgramCache cache;
    std::vector<KernelSweepJob> jobs;
    std::vector<std::string> labels;
    for (const Workload *w : allWorkloads())
        for (const auto &[d, l] : cells) {
            KernelSweepJob job{w, faultedFabric(d, l)};
            job.discoverFaults = true;
            jobs.push_back(std::move(job));
            labels.push_back(w->name());
        }
    std::vector<KernelSweepResult> results =
        runner.runKernels(jobs, cache);

    std::printf("  %-6s", "kernel");
    for (const auto &[d, l] : cells)
        std::printf("  %dpe/%dln", d, l);
    std::printf("\n");
    const std::size_t per = std::size(cells);
    for (std::size_t i = 0; i < results.size(); i += per) {
        std::printf("  %-6s", labels[i].c_str());
        for (std::size_t j = 0; j < per; ++j) {
            const KernelSweepResult &r = results[i + j];
            const char *cell =
                !r.compiled ? "reject"
                : r.validated
                    ? (r.recompiled ? "retry+ok" : "ok")
                    : "FAIL";
            std::printf("  %8s", cell);
        }
        std::printf("\n");
    }
    KernelSweepStats stats = summarizeKernelSweep(results);
    std::printf("  %d/%d compiled cells validated, %d retried "
                "(%d recovered by recompile)\n\n",
                stats.validated, stats.compiled, stats.retried,
                stats.recoveredByRecompile);
}

/** Fault-aware compile: full pass pipeline with 2 dead PEs and a
 *  dead link carved out of the pool. */
void
BM_FaultAwareCompile(benchmark::State &state)
{
    const Workload *nw = findWorkload("NW");
    MachineConfig config = faultedFabric(2, 1);
    for (auto _ : state) {
        CompileResult r = Compiler(config).compile(*nw);
        benchmark::DoNotOptimize(r.ok());
    }
}
BENCHMARK(BM_FaultAwareCompile)->Unit(benchmark::kMillisecond);

/** The discovery-mode retry end to end: oblivious compile (cached),
 *  run into the dead PE, recompile around it, validated rerun. */
void
BM_DiscoveryRetry(benchmark::State &state)
{
    const Workload *crc = findWorkload("CRC");
    MachineConfig faulted = faultedFabric(2, 0);
    SweepRunner runner(1);
    for (auto _ : state) {
        ProgramCache cache;
        KernelSweepJob job{crc, faulted};
        job.discoverFaults = true;
        std::vector<KernelSweepResult> r =
            runner.runKernels({job}, cache);
        benchmark::DoNotOptimize(r[0].validated);
    }
}
BENCHMARK(BM_DiscoveryRetry)->Unit(benchmark::kMillisecond);

/** Watchdog detection latency: a word stranded by a cut mesh must
 *  surface as a structured deadlock in bounded time. */
void
BM_WatchdogStrandedWord(benchmark::State &state)
{
    MachineConfig config;
    config.rows = 1;
    config.cols = 4;
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

    for (auto _ : state) {
        MarionetteMachine machine(config);
        machine.load(program);
        RunResult r = machine.run(100'000);
        benchmark::DoNotOptimize(r.error == RunError::Deadlock);
    }
}
BENCHMARK(BM_WatchdogStrandedWord)->Unit(benchmark::kMicrosecond);

} // namespace
} // namespace marionette

MARIONETTE_BENCH_MAIN(marionette::printSurvivalTable)

/**
 * @file
 * Table 1: control flow forms across modern applications.
 * Regenerates the classification (branch form, loop form) for the
 * benchmark suite from static CDFG analysis, then times the
 * analysis pipeline.
 */

#include "bench_common.h"

namespace marionette
{
namespace
{

void
BM_CdfgBuild(benchmark::State &state)
{
    const Workload *w = allWorkloads()[static_cast<std::size_t>(
        state.range(0))];
    for (auto _ : state) {
        Cdfg g = w->buildCdfg();
        benchmark::DoNotOptimize(g.totalOps());
    }
    state.SetLabel(w->name());
}
BENCHMARK(BM_CdfgBuild)->DenseRange(0, 12);

void
BM_ControlFlowAnalysis(benchmark::State &state)
{
    Cdfg g = allWorkloads()[static_cast<std::size_t>(
                                state.range(0))]
                 ->buildCdfg();
    LoopInfo li = LoopInfo::analyze(g);
    for (auto _ : state) {
        ControlFlowProfile p = analyzeControlFlow(g, li);
        benchmark::DoNotOptimize(p.totalOps);
    }
}
BENCHMARK(BM_ControlFlowAnalysis)->DenseRange(0, 12);

} // namespace
} // namespace marionette

MARIONETTE_ARTIFACT_BENCH_MAIN(
    marionette::renderTable1(marionette::allProfiles()))

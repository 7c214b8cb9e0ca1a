/**
 * @file
 * Fig. 11: Marionette PE (with Proactive PE Configuration) vs. the
 * von Neumann PE and dataflow PE execution models on the ten
 * intensive-control-flow benchmarks, with the operators-under-
 * branch fraction of the secondary axis.  No dedicated control
 * network and no Agile PE Assignment in this comparison
 * (Sec. 6.1's fairness setup).
 */

#include "bench_common.h"

namespace marionette
{
namespace
{

void
BM_ModelEvaluation(benchmark::State &state)
{
    const ModelZoo &z = modelZoo();
    const WorkloadProfile &p =
        allProfiles()[static_cast<std::size_t>(state.range(0))];
    for (auto _ : state) {
        ModelResult r = z.marionetteBase->run(p);
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetLabel(p.name);
}
BENCHMARK(BM_ModelEvaluation)->DenseRange(0, 9);

void
BM_GoldenRunWithTrace(benchmark::State &state)
{
    const Workload *w = allWorkloads()[static_cast<std::size_t>(
        state.range(0))];
    for (auto _ : state) {
        KernelRecorder rec;
        benchmark::DoNotOptimize(w->runGolden(rec));
    }
    state.SetLabel(w->name());
}
BENCHMARK(BM_GoldenRunWithTrace)->Arg(0)->Arg(5)->Arg(9);

} // namespace
} // namespace marionette

MARIONETTE_ARTIFACT_BENCH_MAIN(
    marionette::renderFig11(marionette::allProfiles()))

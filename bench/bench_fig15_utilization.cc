/**
 * @file
 * Fig. 15: fine-grained effects of Agile PE Assignment — the
 * utilization of PEs originally pinned to outer basic blocks, and
 * pipeline utilization (initiations / busy cycles) — on the
 * nested-loop benchmarks whose innermost loops pipeline.
 */

#include "bench_common.h"

namespace marionette
{
namespace
{

void
BM_UtilizationMetrics(benchmark::State &state)
{
    const ModelZoo &z = modelZoo();
    const WorkloadProfile &p =
        allProfiles()[static_cast<std::size_t>(state.range(0))];
    for (auto _ : state) {
        ModelResult r = z.marionette->run(p);
        benchmark::DoNotOptimize(r.outerBbPeUtil);
        benchmark::DoNotOptimize(r.pipelineUtil);
    }
    state.SetLabel(p.name);
}
BENCHMARK(BM_UtilizationMetrics)->Arg(1)->Arg(9);

} // namespace
} // namespace marionette

MARIONETTE_ARTIFACT_BENCH_MAIN(
    marionette::renderFig15(marionette::allProfiles()))

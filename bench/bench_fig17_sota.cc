/**
 * @file
 * Fig. 17: Marionette vs. state-of-the-art spatial architectures
 * (Softbrain, TIA, REVEL, RipTide) on all 13 benchmarks,
 * normalized fabrics — the headline result — plus the full-LDPC
 * composite reported in the caption.
 */

#include "bench_common.h"

namespace marionette
{
namespace
{

void
BM_FullComparison(benchmark::State &state)
{
    const ModelZoo &z = modelZoo();
    const auto &profiles = allProfiles();
    std::vector<const ArchModel *> models{
        z.softbrain.get(), z.tia.get(), z.revel.get(),
        z.riptide.get(), z.marionette.get()};
    for (auto _ : state) {
        CycleTable table = runSuite(models, profiles);
        benchmark::DoNotOptimize(table.size());
    }
}
BENCHMARK(BM_FullComparison);

void
BM_SingleArchSuite(benchmark::State &state)
{
    const ModelZoo &z = modelZoo();
    const ArchModel *models[] = {z.softbrain.get(), z.tia.get(),
                                 z.revel.get(), z.riptide.get(),
                                 z.marionette.get()};
    const ArchModel *m =
        models[static_cast<std::size_t>(state.range(0))];
    for (auto _ : state) {
        double total = 0;
        for (const WorkloadProfile &p : allProfiles())
            total += m->run(p).cycles;
        benchmark::DoNotOptimize(total);
    }
    state.SetLabel(m->name());
}
BENCHMARK(BM_SingleArchSuite)->DenseRange(0, 4);

} // namespace
} // namespace marionette

MARIONETTE_ARTIFACT_BENCH_MAIN(
    marionette::renderFig17(marionette::allProfiles()))

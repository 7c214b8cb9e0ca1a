/**
 * @file
 * Fig. 16: the balance between the control network's speedup and
 * Agile PE Assignment's speedup per benchmark — kernels that
 * cannot pipeline (CRC/ADPCM/MS/LDPC) lean on the network, while
 * regular control flow (VI/HT/SCD/GEMM) leans on Agile.
 */

#include "bench_common.h"

namespace marionette
{
namespace
{

void
BM_ThreeConfigSweep(benchmark::State &state)
{
    const ModelZoo &z = modelZoo();
    const WorkloadProfile &p =
        allProfiles()[static_cast<std::size_t>(state.range(0))];
    for (auto _ : state) {
        double base = z.marionetteBase->run(p).cycles;
        double net = z.marionetteNet->run(p).cycles;
        double all = z.marionette->run(p).cycles;
        benchmark::DoNotOptimize(base + net + all);
    }
    state.SetLabel(p.name);
}
BENCHMARK(BM_ThreeConfigSweep)->Arg(0)->Arg(5)->Arg(9);

} // namespace
} // namespace marionette

MARIONETTE_ARTIFACT_BENCH_MAIN(
    marionette::renderFig16(marionette::allProfiles()))

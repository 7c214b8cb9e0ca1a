/**
 * @file
 * Table 4: area and power breakdown of the 28 nm prototype.
 * Prints the component table from the calibrated model and times
 * the model across configurations.
 */

#include "bench_common.h"

namespace marionette
{
namespace
{

void
BM_AreaBreakdown(benchmark::State &state)
{
    MachineConfig config;
    config.rows = static_cast<int>(state.range(0));
    config.cols = static_cast<int>(state.range(0));
    config.nonlinearPes = config.numPes() / 4;
    for (auto _ : state) {
        AreaBreakdown bd = marionetteAreaBreakdown(config);
        benchmark::DoNotOptimize(bd.totalAreaMm2);
    }
}
BENCHMARK(BM_AreaBreakdown)->Arg(2)->Arg(4)->Arg(8);

} // namespace
} // namespace marionette

MARIONETTE_ARTIFACT_BENCH_MAIN(marionette::renderTable4())

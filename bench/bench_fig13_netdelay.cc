/**
 * @file
 * Fig. 13: control-network scalability — the relationship among
 * network stages, network delay (pipeline cycles) and critical-
 * path delay across frequency targets, from the 28 nm timing
 * model (substituting the paper's Synopsys DC synthesis sweeps).
 */

#include "bench_common.h"

namespace marionette
{
namespace
{

void
BM_TimingQuery(benchmark::State &state)
{
    int pes = static_cast<int>(state.range(0));
    for (auto _ : state) {
        NetworkTiming t = timeControlNetwork(pes, 1.0);
        benchmark::DoNotOptimize(t.latencyCycles);
    }
}
BENCHMARK(BM_TimingQuery)->Arg(16)->Arg(256);

void
BM_FullSweep(benchmark::State &state)
{
    for (auto _ : state) {
        auto sweep = delaySweep();
        benchmark::DoNotOptimize(sweep.size());
    }
}
BENCHMARK(BM_FullSweep);

} // namespace
} // namespace marionette

MARIONETTE_ARTIFACT_BENCH_MAIN(marionette::renderFig13())

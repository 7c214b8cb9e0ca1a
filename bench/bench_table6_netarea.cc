/**
 * @file
 * Table 6: network-area comparison against state-of-the-art
 * spatial architectures (normalized 28 nm, 32-bit, 4x4 array).
 * Prints the comparison and times the underlying switch-count
 * computation (a real CS-Benes instantiation per query).
 */

#include "bench_common.h"

namespace marionette
{
namespace
{

void
BM_NetworkAreaComparison(benchmark::State &state)
{
    MachineConfig config;
    for (auto _ : state) {
        auto table = networkAreaComparison(config);
        benchmark::DoNotOptimize(table.size());
    }
}
BENCHMARK(BM_NetworkAreaComparison);

void
BM_ControlNetworkConstruction(benchmark::State &state)
{
    int pes = static_cast<int>(state.range(0));
    for (auto _ : state) {
        ControlNetwork net(pes, pes);
        benchmark::DoNotOptimize(net.benesSwitches());
    }
}
BENCHMARK(BM_ControlNetworkConstruction)
    ->Arg(4)
    ->Arg(16)
    ->Arg(64);

} // namespace
} // namespace marionette

MARIONETTE_ARTIFACT_BENCH_MAIN(marionette::renderTable6())

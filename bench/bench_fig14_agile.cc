/**
 * @file
 * Fig. 14: speedup contributed by Agile PE Assignment — the
 * innermost-first, waste-minimizing scheduler plus FIFO-decoupled
 * loop rounds (Sec. 4.3) — over Marionette PE + control network.
 */

#include "bench_common.h"

#include "compiler/assignment.h"

namespace marionette
{
namespace
{

void
BM_AgileSchedule(benchmark::State &state)
{
    Cdfg g = allWorkloads()[static_cast<std::size_t>(
                                state.range(0))]
                 ->buildCdfg();
    LoopInfo li = LoopInfo::analyze(g);
    for (auto _ : state) {
        AssignmentPlan plan = agileSchedule(g, li, 16);
        benchmark::DoNotOptimize(plan.totalWaste);
    }
}
BENCHMARK(BM_AgileSchedule)->DenseRange(0, 9);

void
BM_AgileModelFullSuite(benchmark::State &state)
{
    const ModelZoo &z = modelZoo();
    auto intensive = intensiveProfiles();
    for (auto _ : state) {
        double total = 0;
        for (const WorkloadProfile &p : intensive)
            total += z.marionette->run(p).cycles;
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_AgileModelFullSuite);

} // namespace
} // namespace marionette

MARIONETTE_ARTIFACT_BENCH_MAIN(
    marionette::renderFig14(marionette::allProfiles()))

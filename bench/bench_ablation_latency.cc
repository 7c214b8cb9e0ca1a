/**
 * @file
 * Ablation: sensitivity of the control-network benefit to the
 * fabric's latency parameters (a design-choice study).
 * Sweeps (a) the data-mesh latency a network-less design would pay
 * for control transfers, and (b) the dedicated network's own
 * latency — showing where the one-cycle CS-Benes stops paying off.
 */

#include "bench_common.h"

namespace marionette
{
namespace
{

void
printLatencySweep()
{
    bench::banner(
        "Ablation: control-transfer latency sensitivity",
        "(extension study) Fig. 12's 1.14x assumes 6-cycle mesh "
        "vs 1-cycle network; the gain shrinks as the mesh gets "
        "faster and grows with slower meshes");
    auto intensive = intensiveProfiles();

    std::printf("data-mesh control latency sweep (network = 1 "
                "cycle):\n");
    std::printf("%-12s %16s\n", "meshLatency", "ctrlnet gain GM");
    for (double mesh_lat : {2.0, 4.0, 6.0, 9.0, 12.0}) {
        ModelParams params;
        params.dataNetLat = mesh_lat;
        Features base_f;
        base_f.controlNetwork = false;
        base_f.agileAssignment = false;
        Features net_f = base_f;
        net_f.controlNetwork = true;
        auto base = makeMarionette(params, base_f);
        auto net = makeMarionette(params, net_f);
        std::vector<double> gains;
        for (const WorkloadProfile &p : intensive)
            gains.push_back(base->run(p).cycles /
                            net->run(p).cycles);
        std::printf("%-12.0f %15.3fx\n", mesh_lat,
                    geomean(gains));
    }

    std::printf("\ndedicated-network latency sweep (mesh = 6 "
                "cycles):\n");
    std::printf("%-12s %16s\n", "netLatency", "ctrlnet gain GM");
    for (double net_lat : {1.0, 2.0, 3.0, 4.0, 6.0}) {
        ModelParams params;
        params.ctrlNetLat = net_lat;
        Features base_f;
        base_f.controlNetwork = false;
        base_f.agileAssignment = false;
        Features net_f = base_f;
        net_f.controlNetwork = true;
        auto base = makeMarionette(params, base_f);
        auto net = makeMarionette(params, net_f);
        std::vector<double> gains;
        for (const WorkloadProfile &p : intensive)
            gains.push_back(base->run(p).cycles /
                            net->run(p).cycles);
        std::printf("%-12.0f %15.3fx\n", net_lat,
                    geomean(gains));
    }
    std::printf("\n");
}

void
BM_LatencySweepPoint(benchmark::State &state)
{
    ModelParams params;
    params.dataNetLat = static_cast<double>(state.range(0));
    Features base_f;
    base_f.controlNetwork = false;
    base_f.agileAssignment = false;
    auto base = makeMarionette(params, base_f);
    auto intensive = intensiveProfiles();
    for (auto _ : state) {
        double total = 0;
        for (const WorkloadProfile &p : intensive)
            total += base->run(p).cycles;
        benchmark::DoNotOptimize(total);
    }
}
BENCHMARK(BM_LatencySweepPoint)->Arg(2)->Arg(6)->Arg(12);

} // namespace
} // namespace marionette

MARIONETTE_BENCH_MAIN(marionette::printLatencySweep)

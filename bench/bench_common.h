/**
 * @file
 * Shared scaffolding for the per-table/per-figure bench binaries.
 *
 * Every binary in bench/ regenerates one artifact of the paper's
 * evaluation section: it prints the table/series on startup (the
 * reproduction artifact) and then runs google-benchmark timings of
 * the machinery behind it.
 */

#ifndef MARIONETTE_BENCH_BENCH_COMMON_H
#define MARIONETTE_BENCH_BENCH_COMMON_H

#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/marionette.h"

namespace marionette::bench
{

/** The model zoo every figure bench draws from. */
struct ModelZoo
{
    ModelZoo()
    {
        Features base_f;
        base_f.controlNetwork = false;
        base_f.agileAssignment = false;
        Features net_f = base_f;
        net_f.controlNetwork = true;
        Features full_f;

        vonNeumann = makeVonNeumannPe(params);
        dataflow = makeDataflowPe(params);
        marionetteBase = makeMarionette(params, base_f);
        marionetteNet = makeMarionette(params, net_f);
        marionette = makeMarionette(params, full_f);
        softbrain = makeSoftbrain(params);
        tia = makeTia(params);
        revel = makeRevel(params);
        riptide = makeRiptide(params);
    }

    ModelParams params;
    std::unique_ptr<ArchModel> vonNeumann;
    std::unique_ptr<ArchModel> dataflow;
    std::unique_ptr<ArchModel> marionetteBase; ///< proactive only.
    std::unique_ptr<ArchModel> marionetteNet;  ///< + control net.
    std::unique_ptr<ArchModel> marionette;     ///< + agile (full).
    std::unique_ptr<ArchModel> softbrain;
    std::unique_ptr<ArchModel> tia;
    std::unique_ptr<ArchModel> revel;
    std::unique_ptr<ArchModel> riptide;
};

inline ModelZoo &
zoo()
{
    static ModelZoo z;
    return z;
}

/** Banner for the printed artifact. */
inline void
banner(const char *artifact, const char *paper_claim)
{
    std::printf("================================================"
                "=============\n");
    std::printf("%s\n", artifact);
    std::printf("paper reports: %s\n", paper_claim);
    std::printf("================================================"
                "=============\n");
}

} // namespace marionette::bench

/** Print the artifact once, then run the timings. */
#define MARIONETTE_BENCH_MAIN(print_artifact)                     \
    int main(int argc, char **argv)                               \
    {                                                             \
        print_artifact();                                         \
        ::benchmark::Initialize(&argc, argv);                     \
        if (::benchmark::ReportUnrecognizedArguments(argc, argv)) \
            return 1;                                             \
        ::benchmark::RunSpecifiedBenchmarks();                    \
        ::benchmark::Shutdown();                                  \
        return 0;                                                 \
    }

#endif // MARIONETTE_BENCH_BENCH_COMMON_H

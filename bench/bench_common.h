/**
 * @file
 * Shared scaffolding for the per-table/per-figure bench binaries.
 *
 * Every binary in bench/ prints one artifact on startup and then
 * runs google-benchmark timings of the machinery behind it.  The
 * paper's Tables 1-4 and 6 and Figs. 11-17 have one renderer each,
 * in model/eval.h: their benches print it for allProfiles(), and
 * paper_eval prints the same text for its kernel selection.
 */

#ifndef MARIONETTE_BENCH_BENCH_COMMON_H
#define MARIONETTE_BENCH_BENCH_COMMON_H

#include <benchmark/benchmark.h>

#include <cstdio>

#include "core/marionette.h"

namespace marionette::bench
{

/** Print the banner of an artifact that has no model/eval.h
 *  renderer. */
inline void
banner(const char *artifact, const char *paper_claim)
{
    std::fputs(artifactBanner(artifact, paper_claim).c_str(), stdout);
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

/** Print a paper artifact's text (a model/eval.h renderer call)
 *  once, then run the timings. */
#define MARIONETTE_ARTIFACT_BENCH_MAIN(text) \
    MARIONETTE_BENCH_MAIN([] { std::fputs((text).c_str(), stdout); })

#endif // MARIONETTE_BENCH_BENCH_COMMON_H

/**
 * @file
 * Table 2: the survey taxonomy of spatial architectures by PE
 * execution model, with each design's configuration-triggering
 * mechanism — the classification behind the two Fig. 11 PE
 * baselines.
 */

#include "bench_common.h"

#include "model/taxonomy.h"

namespace marionette
{
namespace
{

void
BM_TaxonomyRender(benchmark::State &state)
{
    for (auto _ : state) {
        std::string s = renderTaxonomy();
        benchmark::DoNotOptimize(s.size());
    }
}
BENCHMARK(BM_TaxonomyRender);

} // namespace
} // namespace marionette

MARIONETTE_ARTIFACT_BENCH_MAIN(
    marionette::renderTable2(marionette::allProfiles()))

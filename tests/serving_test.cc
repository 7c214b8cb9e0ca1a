/**
 * Serving-core and spatial co-tenancy coverage.
 *
 * The load-bearing guarantees:
 *  - a kernel served from a region lane is bit-exact (RunResult,
 *    outputs, rendered machine stats) against a solo run of the
 *    same region-masked configuration, on both run paths;
 *  - a fault inside one region never perturbs another region's
 *    configuration identity or results;
 *  - the composite (merged-program) execution style keeps every
 *    tenant's output streams and memory windows byte-identical to
 *    its solo run, and foreign scratchpad windows untouched;
 *  - admission control accounts rejections without serving bugs.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <thread>

#include "core/marionette.h"
#include "serve/region.h"
#include "serve/server.h"

using namespace marionette;
using namespace marionette::serve;

namespace
{

CompilerOptions
laneOptions(const MachineConfig &fabric, int region, int count)
{
    CompilerOptions copts;
    copts.unrollFactor = 1;
    if (count > 1) {
        copts.memoryBase =
            regionMemoryBase(fabric, region, count);
        copts.memoryWords = regionMemoryWords(fabric, count);
    }
    return copts;
}

/** Solo reference: fresh machine, compile + prepare + run +
 *  validate on the region-masked config. */
struct SoloRun
{
    RunResult run;
    std::string stats;
    std::string validation;
    Program program;
};

SoloRun
soloRegionRun(const MachineConfig &fabric, const TileRegion &region,
              int region_index, int region_count,
              const std::string &workload)
{
    const MachineConfig config =
        region_count > 1 ? regionConfig(fabric, region) : fabric;
    const CompilerOptions copts =
        laneOptions(fabric, region_index, region_count);
    CompileResult compiled =
        Compiler(config, copts).compile(*findWorkload(workload));
    EXPECT_TRUE(compiled.ok()) << compiled.report.reason;
    SoloRun solo;
    if (!compiled.ok())
        return solo;
    MarionetteMachine machine(config);
    compiled.kernel->prepare(machine);
    solo.run = machine.run(compiled.kernel->cycleBudget);
    solo.stats = machine.renderAllStats();
    solo.validation =
        compiled.kernel->validate(machine, solo.run);
    solo.program = compiled.kernel->program;
    return solo;
}

} // namespace

TEST(TileRegions, CarveShapesAndDisjointCover)
{
    const MachineConfig big = evalFabric();
    for (int count : {1, 2, 4}) {
        const std::vector<TileRegion> regions =
            carveRegions(big, count);
        ASSERT_EQ(static_cast<int>(regions.size()), count);
        std::vector<int> owner(
            static_cast<std::size_t>(big.numPes()), -1);
        for (std::size_t r = 0; r < regions.size(); ++r) {
            for (PeId pe = 0; pe < big.numPes(); ++pe) {
                if (!regions[r].containsPe(big, pe))
                    continue;
                EXPECT_EQ(owner[static_cast<std::size_t>(pe)], -1)
                    << "PE " << pe << " in two regions";
                owner[static_cast<std::size_t>(pe)] =
                    static_cast<int>(r);
            }
        }
        for (PeId pe = 0; pe < big.numPes(); ++pe)
            EXPECT_NE(owner[static_cast<std::size_t>(pe)], -1)
                << "PE " << pe << " uncovered";
    }
}

TEST(TileRegions, RegionConfigMasksForeignTilesOnly)
{
    const MachineConfig big = evalFabric();
    const std::vector<TileRegion> regions = carveRegions(big, 4);
    const MachineConfig masked = regionConfig(big, regions[0]);
    EXPECT_EQ(static_cast<int>(masked.faults.deadPes.size()), 75);
    for (PeId pe : masked.faults.deadPes)
        EXPECT_FALSE(regions[0].containsPe(big, pe));

    // A fault in a *foreign* region is subsumed by the mask: the
    // region's config identity (and so its cache entries and
    // snapshots) does not change.
    MachineConfig faulted = big;
    faulted.faults.deadPes.push_back(99); // inside Q3.
    EXPECT_EQ(configHash(regionConfig(big, regions[0])),
              configHash(regionConfig(faulted, regions[0])));

    // A fault *inside* the region is kept.
    MachineConfig inside = big;
    inside.faults.deadPes.push_back(11); // inside Q0.
    EXPECT_NE(configHash(regionConfig(big, regions[0])),
              configHash(regionConfig(inside, regions[0])));
}

TEST(TileRegions, NonlinearCapabilityIsSpatial)
{
    const MachineConfig big = evalFabric();
    const std::vector<TileRegion> regions = carveRegions(big, 4);
    // Nonlinear-capable PEs are the last config.nonlinearPes ids
    // (96..99 here) — all in the bottom-right quadrant.
    EXPECT_EQ(nonlinearPesInRegion(big, regions[0]), 0);
    EXPECT_EQ(nonlinearPesInRegion(big, regions[1]), 0);
    EXPECT_EQ(nonlinearPesInRegion(big, regions[2]), 0);
    EXPECT_EQ(nonlinearPesInRegion(big, regions[3]), 4);
    EXPECT_TRUE(workloadNeedsNonlinear(*findWorkload("SI")));
    EXPECT_FALSE(workloadNeedsNonlinear(*findWorkload("CRC")));
}

/** Served responses are byte-identical to solo region runs —
 *  RunResult, outputs and the full rendered stat dump — across
 *  both run paths, and repeated requests (warm starts) too. */
TEST(ServingCore, CoTenantBitExactVsSoloBothRunPaths)
{
    for (bool event_driven : {false, true}) {
        MachineConfig fabric = evalFabric();
        fabric.eventDrivenSim = event_driven;
        const std::vector<TileRegion> regions =
            carveRegions(fabric, 4);

        // Solo references: CRC confined to Q0, SI to Q3 (the only
        // quadrant with nonlinear-capable PEs).
        const SoloRun solo_crc =
            soloRegionRun(fabric, regions[0], 0, 4, "CRC");
        const SoloRun solo_si =
            soloRegionRun(fabric, regions[3], 3, 4, "SI");
        EXPECT_TRUE(solo_crc.validation.empty())
            << solo_crc.validation;
        EXPECT_TRUE(solo_si.validation.empty())
            << solo_si.validation;
        EXPECT_TRUE(programInsideRegion(solo_crc.program, fabric,
                                        regions[0]));
        EXPECT_TRUE(programInsideRegion(solo_si.program, fabric,
                                        regions[3]));

        ServeOptions options;
        options.fabric = fabric;
        options.fabrics = 1;
        options.regionsPerFabric = 4;
        options.queueCapacity = 32;
        ServeCore core(options);

        std::vector<
            std::pair<std::string, std::future<ServeResponse>>>
            futures;
        for (int rep = 0; rep < 2; ++rep) {
            for (const char *name : {"CRC", "SI"}) {
                ServeRequest request;
                request.tenant = name;
                request.workload = name;
                request.options.unrollFactor = 1;
                request.wantStats = true;
                futures.emplace_back(name, core.submit(request));
            }
        }
        core.drain();

        int warm = 0;
        for (auto &entry : futures) {
            const ServeResponse response = entry.second.get();
            ASSERT_TRUE(response.served) << response.error;
            EXPECT_TRUE(response.validation.empty())
                << response.validation;
            warm += response.warmStart ? 1 : 0;
            // CRC requests may land on any lane; compare only the
            // ones the scheduler put where a solo reference ran.
            // SI can only land on Q3, so it always compares.
            const bool in_q0 =
                response.region.row0 == regions[0].row0 &&
                response.region.col0 == regions[0].col0;
            const bool in_q3 =
                response.region.row0 == regions[3].row0 &&
                response.region.col0 == regions[3].col0;
            const SoloRun *solo = nullptr;
            if (entry.first == "CRC" && in_q0)
                solo = &solo_crc;
            if (entry.first == "SI" && in_q3)
                solo = &solo_si;
            if (!solo)
                continue;
            EXPECT_EQ(response.run.cycles, solo->run.cycles);
            EXPECT_EQ(response.run.finished, solo->run.finished);
            EXPECT_EQ(response.run.outputs, solo->run.outputs);
            EXPECT_EQ(response.run.totalFires,
                      solo->run.totalFires);
            EXPECT_EQ(response.stats, solo->stats)
                << "rendered stats diverge from the solo run";
        }
        // Second round of each cell warm-started from the
        // post-prepare snapshot.
        EXPECT_GE(warm, 1);
        EXPECT_GE(core.snapshotCounters().hits, 1u);
    }
}

/** One dead PE inside one region: that region re-places around it;
 *  the *other* region's identity and results are untouched. */
TEST(ServingCore, DeadPeInOneRegionLeavesOtherTenantUnaffected)
{
    const MachineConfig clean = evalFabric();
    MachineConfig faulted = evalFabric();
    faulted.faults.deadPes.push_back(12); // inside Q0.
    const std::vector<TileRegion> regions =
        carveRegions(clean, 4);

    // The faulted region still serves: placement avoids PE 12.
    const SoloRun crc_faulted =
        soloRegionRun(faulted, regions[0], 0, 4, "CRC");
    EXPECT_TRUE(crc_faulted.validation.empty())
        << crc_faulted.validation;
    for (const PeProgram &p : crc_faulted.program.pes)
        EXPECT_NE(p.pe, 12);

    // The other tenant's region config is identical with and
    // without the foreign fault — same configHash, same compiled
    // program, byte-identical run and stat dump.
    EXPECT_EQ(configHash(regionConfig(clean, regions[3])),
              configHash(regionConfig(faulted, regions[3])));
    const SoloRun si_clean =
        soloRegionRun(clean, regions[3], 3, 4, "SI");
    const SoloRun si_faulted =
        soloRegionRun(faulted, regions[3], 3, 4, "SI");
    EXPECT_EQ(si_clean.run.cycles, si_faulted.run.cycles);
    EXPECT_EQ(si_clean.run.outputs, si_faulted.run.outputs);
    EXPECT_EQ(si_clean.stats, si_faulted.stats);

    // End to end through the core on the faulted fabric.
    ServeOptions options;
    options.fabric = faulted;
    options.fabrics = 1;
    options.regionsPerFabric = 4;
    ServeCore core(options);
    std::vector<std::future<ServeResponse>> futures;
    for (const char *name : {"CRC", "SI"}) {
        ServeRequest request;
        request.tenant = name;
        request.workload = name;
        request.options.unrollFactor = 1;
        futures.push_back(core.submit(request));
    }
    core.drain();
    for (auto &future : futures) {
        const ServeResponse response = future.get();
        EXPECT_TRUE(response.served) << response.error;
        EXPECT_TRUE(response.validation.empty())
            << response.validation;
    }
}

/** Composite execution: several region kernels merged into one
 *  program on one machine, every tenant byte-identical to solo,
 *  foreign scratchpad windows untouched. */
TEST(Composite, MergedTenantsStayBitExact)
{
    const MachineConfig big = evalFabric();
    const std::vector<TileRegion> regions = carveRegions(big, 4);
    const struct
    {
        int region;
        const char *workload;
    } placements[] = {{0, "CRC"}, {1, "CRC"}, {3, "SI"}};

    std::vector<std::shared_ptr<const CompiledKernel>> kernels;
    for (const auto &placement : placements) {
        const MachineConfig config =
            regionConfig(big, regions[placement.region]);
        CompileResult compiled =
            Compiler(config,
                     laneOptions(big, placement.region, 4))
                .compile(*findWorkload(placement.workload));
        ASSERT_TRUE(compiled.ok()) << compiled.report.reason;
        kernels.push_back(compiled.kernel);
    }
    const CompositeKernel merged = mergeKernels(kernels, big);
    ASSERT_TRUE(merged.ok()) << merged.error;

    MarionetteMachine machine(big);
    merged.prepare(machine);
    const RunResult run = machine.run(merged.cycleBudget);
    ASSERT_TRUE(run.finished);
    for (std::size_t s = 0; s < merged.slices.size(); ++s)
        EXPECT_EQ(merged.validateSlice(machine, run, s), "")
            << "slice " << s;

    // The unoccupied region's scratchpad window is untouched.
    const Word q2_base = regionMemoryBase(big, 2, 4);
    const std::vector<Word> q2 = machine.scratchpad().dump(
        q2_base, static_cast<int>(regionMemoryWords(big, 4)));
    for (Word word : q2)
        ASSERT_EQ(word, 0);
}

TEST(Composite, OverlappingFootprintsAreRejected)
{
    const MachineConfig big = evalFabric();
    const std::vector<TileRegion> regions = carveRegions(big, 4);
    // GP's footprint (~65536 words from base 0) cannot share with
    // a base-32768 tenant; an uncapped compile would silently
    // overlap, the merge must refuse.
    CompilerOptions gp_opts;
    gp_opts.unrollFactor = 1;
    CompileResult gp =
        Compiler(regionConfig(big, regions[0]), gp_opts)
            .compile(*findWorkload("GP"));
    ASSERT_TRUE(gp.ok()) << gp.report.reason;
    CompileResult crc =
        Compiler(regionConfig(big, regions[1]),
                 laneOptions(big, 1, 4))
            .compile(*findWorkload("CRC"));
    ASSERT_TRUE(crc.ok()) << crc.report.reason;
    const CompositeKernel merged =
        mergeKernels({gp.kernel, crc.kernel}, big);
    EXPECT_FALSE(merged.ok());
    EXPECT_NE(merged.error.find("overlap"), std::string::npos)
        << merged.error;

    // And the emit pass refuses the same kernel up front when the
    // window is declared.
    CompilerOptions capped = laneOptions(big, 0, 4);
    CompileResult rejected =
        Compiler(regionConfig(big, regions[0]), capped)
            .compile(*findWorkload("GP"));
    EXPECT_FALSE(rejected.ok());
    EXPECT_EQ(rejected.report.failedPass, "emit");
}

/** The window cap relocates but never changes behaviour: the same
 *  kernel compiled at two different bases runs identically. */
TEST(MemoryWindows, RelocationIsBehaviourPreserving)
{
    const MachineConfig big = evalFabric();
    for (const char *name : {"CRC", "SI"}) {
        CompilerOptions base0, shifted;
        base0.unrollFactor = shifted.unrollFactor = 1;
        shifted.memoryBase = 32768;
        shifted.memoryWords = 32768;
        CompileResult a =
            Compiler(big, base0).compile(*findWorkload(name));
        CompileResult b =
            Compiler(big, shifted).compile(*findWorkload(name));
        ASSERT_TRUE(a.ok() && b.ok());
        MarionetteMachine ma(big), mb(big);
        a.kernel->prepare(ma);
        b.kernel->prepare(mb);
        const RunResult ra = ma.run(a.kernel->cycleBudget);
        const RunResult rb = mb.run(b.kernel->cycleBudget);
        EXPECT_EQ(ra.cycles, rb.cycles);
        EXPECT_EQ(ra.outputs, rb.outputs);
        EXPECT_EQ(a.kernel->validate(ma, ra), "");
        EXPECT_EQ(b.kernel->validate(mb, rb), "");
    }
}

TEST(ServingCore, LatencyPercentilesAreNearestRank)
{
    // One tenant, two requests of different kernels (the two
    // cheapest to compile and run): over two latencies the
    // nearest-rank p50 is the smaller one and the p99 the larger.
    ServeOptions options;
    options.fabric = evalFabric();
    ServeCore core(options);
    ServeRequest request;
    request.tenant = "p";
    std::vector<std::uint64_t> latencies;
    for (const char *kernel : {"SI", "GP"}) {
        request.workload = kernel;
        const ServeResponse response = core.submit(request).get();
        ASSERT_TRUE(response.served) << response.error;
        latencies.push_back(response.queueMicros +
                            response.serviceMicros);
    }
    ASSERT_NE(latencies[0], latencies[1]);
    const auto [low, high] =
        std::minmax(latencies[0], latencies[1]);
    const std::string stats = core.renderStats();
    EXPECT_NE(stats.find("serve.tenant.p.latency_p50_micros " +
                         std::to_string(low) + "\n"),
              std::string::npos)
        << stats;
    EXPECT_NE(stats.find("serve.tenant.p.latency_p99_micros " +
                         std::to_string(high) + "\n"),
              std::string::npos)
        << stats;
}

/** One lane runs SI, then HT: HT must start from its own zeroed
 *  footprint, not from what SI left there (HT's vote accumulator is
 *  outside its image).  With the caches on, HT's post-prepare
 *  snapshot would also keep the dirty words for later warm starts. */
TEST(ServingCore, ReusedLaneStartsEachKernelOnCleanMemory)
{
    for (bool caches : {false, true}) {
        ServeOptions options;
        options.fabric = evalFabric();
        options.programCache = caches;
        options.snapshots = caches;
        ServeCore core(options);
        ServeRequest request;
        request.tenant = "t";
        for (const char *kernel : {"SI", "HT"}) {
            request.workload = kernel;
            const ServeResponse response =
                core.submit(request).get();
            ASSERT_TRUE(response.served) << response.error;
            EXPECT_EQ(response.validation, "")
                << kernel << (caches ? " (caches on)" : "");
        }
    }
}

TEST(ServingCore, AdmissionControlAccountsRejections)
{
    // Unknown workloads and capability-unservable kernels resolve
    // immediately with a reason, never enqueue.
    MachineConfig fabric = evalFabric();
    ServeOptions options;
    options.fabric = fabric;
    options.fabrics = 1;
    options.regionsPerFabric = 1;
    options.queueCapacity = 2;
    {
        ServeCore core(options);
        ServeRequest bogus;
        bogus.tenant = "t";
        bogus.workload = "NOPE";
        std::future<ServeResponse> future;
        ASSERT_TRUE(core.trySubmit(bogus, future));
        const ServeResponse response = future.get();
        EXPECT_FALSE(response.served);
        EXPECT_NE(response.error.find("unknown workload"),
                  std::string::npos);
    }

    // A fabric whose nonlinear-capable PEs are all dead cannot
    // serve SI from any lane: rejected as unservable up front.
    MachineConfig no_nonlinear = evalFabric();
    for (PeId pe : {96, 97, 98, 99})
        no_nonlinear.faults.deadPes.push_back(pe);
    options.fabric = no_nonlinear;
    {
        ServeCore core(options);
        ServeRequest si;
        si.tenant = "t";
        si.workload = "SI";
        std::future<ServeResponse> future;
        ASSERT_TRUE(core.trySubmit(si, future));
        const ServeResponse response = future.get();
        EXPECT_FALSE(response.served);
        EXPECT_NE(response.error.find("no lane"),
                  std::string::npos);
        const std::string stats = core.renderStats();
        EXPECT_NE(stats.find("rejected_unservable 1"),
                  std::string::npos)
            << stats;
    }

    // Queue-full rejection: occupy the single lane with a slow
    // kernel, fill the two queue slots, and watch the next
    // trySubmit bounce.
    options.fabric = evalFabric();
    {
        ServeCore core(options);
        std::vector<std::future<ServeResponse>> futures(4);
        ServeRequest slow;
        slow.tenant = "t";
        slow.workload = "GP"; // ~40k cycles: the lane stays busy.
        slow.options.unrollFactor = 1;
        ASSERT_TRUE(core.trySubmit(slow, futures[0]));
        // Give the worker time to pop the first request.
        std::this_thread::sleep_for(
            std::chrono::milliseconds(5));
        int rejected = 0;
        for (int i = 1; i < 4; ++i)
            if (!core.trySubmit(slow, futures[i]))
                ++rejected;
        EXPECT_GE(rejected, 1);
        core.drain();
        const std::string stats = core.renderStats();
        EXPECT_NE(stats.find("rejected_queue_full"),
                  std::string::npos)
            << stats;
    }
}

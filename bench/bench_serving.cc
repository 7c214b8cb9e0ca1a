/**
 * @file
 * Serving-core throughput ladder.
 *
 * Drives the multi-tenant ServeCore with a heavy synthetic open-loop
 * load — mixed kernel sizes, Zipf-skewed tenant mix — and reports
 * one rung per serving policy:
 *
 *   cold           every request pays a full compile + prepare
 *   program-cache  compiles served from the shared ProgramCache
 *   +snapshot      prepares served from SnapshotCache warm starts
 *   one-per-fabric small-kernel mix, one lane per fabric (baseline)
 *   +co-tenancy    same pool, each fabric carved into 4 regions
 *
 * Two throughput metrics, on purpose.  Wall-clock requests/sec
 * measures the *serving software* — compile and prepare elimination
 * — and backs the snapshot-vs-cold criterion.  Fabric-time
 * requests/sec divides served requests by the pool's simulated-time
 * makespan (max over fabrics of that fabric's occupied cycles, at
 * MachineConfig::clockHz); co-tenant regions of one fabric overlap
 * in simulated time, so this is the metric under which spatial
 * co-tenancy is a small-kernel throughput multiplier even on a
 * single-core simulation host.
 *
 * Every response is cross-validated against the kernel's goldens;
 * the ladder aborts if any response diverges.  Writes
 * BENCH_serving.json through the shared report writer
 * (sim/report.h).
 *
 * This binary has a custom main (no google-benchmark harness): the
 * measured quantity is a whole closed system, not a microbenchmark
 * loop.  --smoke runs a small correctness-gated load for CI.
 */

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <string>
#include <thread>
#include <vector>

#include "core/marionette.h"
#include "serve/server.h"
#include "sim/report.h"
#include "sim/rng.h"

using namespace marionette;
using namespace marionette::serve;

namespace
{

/** Strict integer parse: the whole string must be a number in
 *  [lo, hi] — garbage and out-of-range values are rejected. */
bool
parseCount(const char *text, long lo, long hi, int &out)
{
    if (*text == '\0')
        return false;
    char *end = nullptr;
    const long value = std::strtol(text, &end, 10);
    if (*end != '\0' || value < lo || value > hi)
        return false;
    out = static_cast<int>(value);
    return true;
}

/** One (workload, weight) entry of a synthetic mix. */
struct MixEntry
{
    const char *workload;
    double weight;
};

/** The open-loop request schedule: deterministic for a seed. */
std::vector<ServeRequest>
makeSchedule(const std::vector<MixEntry> &mix, int tenants,
             int requests, std::uint64_t seed)
{
    // Zipf(1.1) tenant popularity: tenant 0 dominates, the tail
    // still shows up — the shape serving stacks are sized for.
    std::vector<double> tenant_cdf(static_cast<std::size_t>(tenants));
    double total = 0;
    for (int t = 0; t < tenants; ++t) {
        total += 1.0 / std::pow(static_cast<double>(t + 1), 1.1);
        tenant_cdf[static_cast<std::size_t>(t)] = total;
    }
    std::vector<double> mix_cdf(mix.size());
    double mix_total = 0;
    for (std::size_t m = 0; m < mix.size(); ++m) {
        mix_total += mix[m].weight;
        mix_cdf[m] = mix_total;
    }

    Rng rng(seed);
    std::vector<ServeRequest> schedule;
    schedule.reserve(static_cast<std::size_t>(requests));
    for (int i = 0; i < requests; ++i) {
        ServeRequest request;
        const double t_draw = rng.nextDouble() * total;
        int tenant = 0;
        while (tenant + 1 < tenants &&
               t_draw > tenant_cdf[static_cast<std::size_t>(tenant)])
            ++tenant;
        request.tenant = "t" + std::to_string(tenant);
        const double m_draw = rng.nextDouble() * mix_total;
        std::size_t pick = 0;
        while (pick + 1 < mix.size() && m_draw > mix_cdf[pick])
            ++pick;
        request.workload = mix[pick].workload;
        request.options.unrollFactor = 1;
        schedule.push_back(std::move(request));
    }
    return schedule;
}

struct RungResult
{
    std::string name;
    int requests = 0;
    int served = 0;
    int failed = 0;
    int backpressured = 0;
    int warmStarts = 0;
    bool bitExact = true;
    double wallSeconds = 0;
    double wallRps = 0;
    double p50Millis = 0;
    double p99Millis = 0;
    std::uint64_t makespanCycles = 0;
    double fabricRps = 0;
    std::uint64_t programHits = 0;
    std::uint64_t programMisses = 0;
    SnapshotCache::Counters snapshots;
};

RungResult
runRung(const std::string &name, const ServeOptions &options,
        const std::vector<ServeRequest> &schedule)
{
    RungResult rung;
    rung.name = name;
    rung.requests = static_cast<int>(schedule.size());

    ServeCore core(options);
    std::vector<std::future<ServeResponse>> futures;
    futures.reserve(schedule.size());

    const auto start = std::chrono::steady_clock::now();
    for (const ServeRequest &request : schedule) {
        std::future<ServeResponse> future;
        // Open loop with backpressure: when admission control
        // bounces a request the producer blocks until the queue
        // drains instead of dropping work.
        if (!core.trySubmit(request, future)) {
            ++rung.backpressured;
            future = core.submit(request);
        }
        futures.push_back(std::move(future));
    }
    core.drain();
    rung.wallSeconds =
        std::chrono::duration<double>(
            std::chrono::steady_clock::now() - start)
            .count();

    std::vector<std::uint64_t> latencies;
    for (auto &future : futures) {
        const ServeResponse response = future.get();
        if (!response.served) {
            ++rung.failed;
            std::fprintf(stderr, "  [%s] FAILED: %s\n",
                         name.c_str(), response.error.c_str());
            continue;
        }
        ++rung.served;
        rung.warmStarts += response.warmStart ? 1 : 0;
        if (!response.validation.empty()) {
            rung.bitExact = false;
            std::fprintf(stderr, "  [%s] DIVERGED: %s\n",
                         name.c_str(),
                         response.validation.c_str());
        }
        latencies.push_back(response.queueMicros +
                            response.serviceMicros);
    }
    rung.wallRps = rung.wallSeconds > 0
                       ? rung.served / rung.wallSeconds
                       : 0;
    rung.p50Millis =
        static_cast<double>(percentile(latencies, 0.50)) / 1000.0;
    rung.p99Millis =
        static_cast<double>(percentile(latencies, 0.99)) / 1000.0;

    for (std::uint64_t cycles : core.fabricBusyCycles())
        rung.makespanCycles =
            std::max(rung.makespanCycles, cycles);
    if (rung.makespanCycles > 0) {
        const double sim_seconds =
            static_cast<double>(rung.makespanCycles) /
            options.fabric.clockHz;
        rung.fabricRps = rung.served / sim_seconds;
    }
    rung.programHits = core.programs().hits();
    rung.programMisses = core.programs().misses();
    rung.snapshots = core.snapshotCounters();
    return rung;
}

void
printRung(const RungResult &rung)
{
    std::printf(
        "%-16s %4d served %2d warm  %7.2fs wall %8.2f req/s  "
        "p50 %7.2fms p99 %7.2fms  makespan %9llu cy "
        "fabric %9.1f req/s %s\n",
        rung.name.c_str(), rung.served, rung.warmStarts,
        rung.wallSeconds, rung.wallRps, rung.p50Millis,
        rung.p99Millis,
        static_cast<unsigned long long>(rung.makespanCycles),
        rung.fabricRps, rung.bitExact ? "" : " NOT BIT-EXACT");
}

void
writeRungJson(std::ofstream &out, const RungResult &rung,
              bool last)
{
    out << "    {\n"
        << "      \"name\": \"" << rung.name << "\",\n"
        << "      \"requests\": " << rung.requests << ",\n"
        << "      \"served\": " << rung.served << ",\n"
        << "      \"failed\": " << rung.failed << ",\n"
        << "      \"backpressured\": " << rung.backpressured
        << ",\n"
        << "      \"warm_starts\": " << rung.warmStarts << ",\n"
        << "      \"bit_exact\": "
        << (rung.bitExact ? "true" : "false") << ",\n"
        << "      \"wall_seconds\": " << rung.wallSeconds << ",\n"
        << "      \"wall_requests_per_sec\": " << rung.wallRps
        << ",\n"
        << "      \"latency_p50_ms\": " << rung.p50Millis << ",\n"
        << "      \"latency_p99_ms\": " << rung.p99Millis << ",\n"
        << "      \"makespan_cycles\": " << rung.makespanCycles
        << ",\n"
        << "      \"fabric_requests_per_sec\": " << rung.fabricRps
        << ",\n"
        << "      \"program_cache_hits\": " << rung.programHits
        << ",\n"
        << "      \"program_cache_misses\": " << rung.programMisses
        << ",\n"
        << "      \"snapshot_hits\": " << rung.snapshots.hits
        << ",\n"
        << "      \"snapshot_misses\": " << rung.snapshots.misses
        << ",\n"
        << "      \"snapshot_saved_micros\": "
        << rung.snapshots.savedMicros << "\n"
        << "    }" << (last ? "\n" : ",\n");
}

void
usage()
{
    std::printf(
        "bench_serving [--smoke] [--requests=N] [--shards=N]\n"
        "              [--queue=N] [--seed=N] [--out=PATH]\n"
        "  --smoke      small correctness-gated load (CI)\n"
        "  --requests=N warm-start ladder size, 1..100000\n"
        "               (the co-tenancy rungs use 2x N)\n"
        "  --shards=N   fabrics in the pool, 0..256\n"
        "               (0 = auto-detect hardware concurrency)\n"
        "  --queue=N    admission queue capacity, 1..100000\n"
        "  --seed=N     schedule seed, 0..1000000\n"
        "  --out=PATH   report path (default BENCH_serving.json)\n");
}

} // namespace

int
main(int argc, char **argv)
{
    bool smoke = false;
    int requests = 120;
    int shards = 1;
    int queue = 64;
    int seed = 7;
    std::string out_path = "BENCH_serving.json";

    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        bool ok = true;
        if (std::strcmp(arg, "--smoke") == 0)
            smoke = true;
        else if (std::strncmp(arg, "--requests=", 11) == 0)
            ok = parseCount(arg + 11, 1, 100000, requests);
        else if (std::strncmp(arg, "--shards=", 9) == 0)
            ok = parseCount(arg + 9, 0, 256, shards);
        else if (std::strncmp(arg, "--queue=", 8) == 0)
            ok = parseCount(arg + 8, 1, 100000, queue);
        else if (std::strncmp(arg, "--seed=", 7) == 0)
            ok = parseCount(arg + 7, 0, 1000000, seed);
        else if (std::strncmp(arg, "--out=", 6) == 0)
            out_path = arg + 6;
        else {
            usage();
            return std::strcmp(arg, "--help") == 0 ? 0 : 1;
        }
        if (!ok) {
            std::fprintf(stderr, "bad value in '%s'\n", arg);
            usage();
            return 1;
        }
    }
    if (shards == 0) {
        const unsigned detected =
            std::thread::hardware_concurrency();
        shards = detected > 0 ? static_cast<int>(detected) : 1;
        std::printf("auto-detected %d shard%s\n", shards,
                    shards == 1 ? "" : "s");
    }
    if (smoke)
        requests = 16;

    const MachineConfig fabric = evalFabric();

    // Mixed-size repeated-cell mix for the warm-start ladder: SI is
    // tiny (~2k cycles), CRC mid (~8.5k), ADPCM heavy on both the
    // compiler and the fabric (~68k cycles), SCD heavy on the
    // compiler (~200ms) but light on the fabric.
    const std::vector<MixEntry> mixed = {{"SI", 0.35},
                                         {"CRC", 0.20},
                                         {"ADPCM", 0.10},
                                         {"SCD", 0.35}};
    // Small-kernel mix for the co-tenancy rungs: kernels that fit a
    // quadrant (SI additionally needs the nonlinear quadrant).
    const std::vector<MixEntry> small = {{"SI", 0.50},
                                         {"CRC", 0.50}};

    const std::vector<ServeRequest> mixed_schedule = makeSchedule(
        mixed, 6, requests, static_cast<std::uint64_t>(seed));
    const std::vector<ServeRequest> small_schedule = makeSchedule(
        small, 6, smoke ? 24 : requests * 2,
        static_cast<std::uint64_t>(seed) + 1);

    ServeOptions base;
    base.fabric = fabric;
    base.fabrics = shards;
    base.regionsPerFabric = 1;
    base.queueCapacity = queue;

    std::printf("serving ladder: %d shard%s, queue %d, %zu + %zu "
                "requests\n",
                shards, shards == 1 ? "" : "s", queue,
                mixed_schedule.size(), small_schedule.size());

    std::vector<RungResult> rungs;

    ServeOptions cold = base;
    cold.programCache = false;
    cold.snapshots = false;
    rungs.push_back(runRung("cold", cold, mixed_schedule));
    printRung(rungs.back());

    ServeOptions pcache = base;
    pcache.snapshots = false;
    rungs.push_back(
        runRung("program-cache", pcache, mixed_schedule));
    printRung(rungs.back());

    rungs.push_back(runRung("+snapshot", base, mixed_schedule));
    printRung(rungs.back());

    rungs.push_back(
        runRung("one-per-fabric", base, small_schedule));
    printRung(rungs.back());

    ServeOptions cotenant = base;
    cotenant.regionsPerFabric = 4;
    rungs.push_back(
        runRung("+co-tenancy", cotenant, small_schedule));
    printRung(rungs.back());

    const double snapshot_vs_cold =
        rungs[0].wallRps > 0 ? rungs[2].wallRps / rungs[0].wallRps
                             : 0;
    const double cotenancy_ratio =
        rungs[3].fabricRps > 0
            ? rungs[4].fabricRps / rungs[3].fabricRps
            : 0;
    bool all_exact = true;
    int total_failed = 0;
    for (const RungResult &rung : rungs) {
        all_exact = all_exact && rung.bitExact;
        total_failed += rung.failed;
    }

    std::printf("snapshot vs cold (wall):        %.2fx\n",
                snapshot_vs_cold);
    std::printf("co-tenancy vs solo (fabric):    %.2fx\n",
                cotenancy_ratio);

    if (smoke) {
        // CI gate: correctness only — wall-clock ratios are too
        // noisy on shared runners to gate on.
        bool pass = all_exact && total_failed == 0;
        if (rungs[2].warmStarts == 0) {
            std::fprintf(stderr,
                         "smoke: no snapshot warm starts\n");
            pass = false;
        }
        if (rungs[4].p99Millis > 60000.0) {
            std::fprintf(stderr, "smoke: p99 over 60s\n");
            pass = false;
        }
        std::printf("smoke %s\n", pass ? "PASS" : "FAIL");
        return pass ? 0 : 1;
    }

    std::ofstream out;
    if (!openReport(out, out_path, "serving"))
        return 1;
    out << "  \"artifact\": \"serving\",\n"
        << "  \"shards\": " << shards << ",\n"
        << "  \"queue_capacity\": " << queue << ",\n"
        << "  \"seed\": " << seed << ",\n"
        << "  \"rungs\": [\n";
    for (std::size_t r = 0; r < rungs.size(); ++r)
        writeRungJson(out, rungs[r], r + 1 == rungs.size());
    out << "  ],\n"
        << "  \"snapshot_vs_cold_wall_rps_ratio\": "
        << snapshot_vs_cold << ",\n"
        << "  \"cotenancy_fabric_throughput_ratio\": "
        << cotenancy_ratio << ",\n"
        << "  \"all_bit_exact\": "
        << (all_exact ? "true" : "false") << "\n";
    closeReport(out, out_path, "serving");

    return (all_exact && total_failed == 0) ? 0 : 1;
}

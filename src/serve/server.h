/**
 * @file
 * Multi-tenant fabric-serving core.
 *
 * SweepRunner fans out a fixed batch and tears every machine down;
 * nothing in the repo modeled the ROADMAP's request-serving shape.
 * ServeCore does: a bounded async queue of (tenant, workload,
 * options) requests feeding a sharded pool of *persistent*
 * MarionetteMachine instances — one worker thread per lane, machines
 * constructed once at startup and never recreated.  Each request is
 * compiled through the shared ProgramCache (cold mode bypasses it),
 * warm-started from the SnapshotCache's post-prepare checkpoint when
 * one exists, run, and cross-validated against the kernel's goldens.
 *
 * Lanes are (fabric, region) pairs.  With regionsPerFabric == 1 a
 * lane owns a whole fabric.  With 2 or 4, the fabric is carved into
 * rectangular TileRegions (serve/region.h): each lane's machine is
 * built from regionConfig() — foreign tiles masked dead, so the
 * backend confines placement and routing to the lane's rectangle —
 * and owns a disjoint scratchpad window via
 * CompilerOptions::memoryBase.  Because regions are spatially
 * isolated, a lane's results are bit-exact against solo runs, and
 * the lanes of one fabric overlap in *simulated* time: the fabric's
 * occupancy is the max over its lanes' busy cycles, which is what
 * makes co-tenancy a small-kernel throughput multiplier
 * (bench/bench_serving.cc reports it as fabric-time throughput).
 *
 * Admission control and backpressure: trySubmit() rejects when the
 * queue is full (the caller sheds load); submit() blocks instead.
 * A request whose kernel cannot fit any lane (a nonlinear kernel
 * with no nonlinear-capable lane) is rejected up front as
 * unservable.  Per-tenant statistics (accepted / rejected / served,
 * queue-wait and service micros, service cycles, p50/p99 latency)
 * render through the existing stat layer, alongside the shared
 * ProgramCache and SnapshotCache counters.
 */

#ifndef MARIONETTE_SERVE_SERVER_H
#define MARIONETTE_SERVE_SERVER_H

#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <future>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arch/machine.h"
#include "compiler/program_cache.h"
#include "serve/region.h"
#include "sim/stats.h"
#include "sim/sweep.h"

namespace marionette
{
namespace serve
{

/** One tenant job: run @p workload with @p options. */
struct ServeRequest
{
    std::string tenant;
    std::string workload;
    CompilerOptions options;
    /** Attach the lane machine's full stat dump to the response
     *  (meaningful with snapshots on: restore() rewinds the stats
     *  to the post-prepare checkpoint, so repeated requests dump
     *  identically). */
    bool wantStats = false;
};

/** What the core hands back per request. */
struct ServeResponse
{
    /** True when the kernel compiled, ran and finished. */
    bool served = false;
    /** Why not, when !served (compile diagnostic, run error). */
    std::string error;
    RunResult run;
    /** Bit-exact golden cross-validation; empty = exact. */
    std::string validation;
    /** Lane that executed the request. */
    int lane = -1;
    /** Region of that lane (whole fabric when regions == 1). */
    TileRegion region;
    /** True when the machine warm-started from a snapshot. */
    bool warmStart = false;
    std::uint64_t queueMicros = 0;
    std::uint64_t serviceMicros = 0;
    /** Lane machine stat dump when ServeRequest::wantStats. */
    std::string stats;
};

/** Pool shape and policy. */
struct ServeOptions
{
    /** Per-fabric architecture (faults included). */
    MachineConfig fabric;
    /** Fabrics in the pool. */
    int fabrics = 1;
    /** Regions each fabric is carved into (1, 2 or 4). */
    int regionsPerFabric = 1;
    /** Bounded queue capacity (admission control). */
    int queueCapacity = 64;
    /** Compile through the shared ProgramCache.  Off = every
     *  request pays a full compile (the bench's cold rung). */
    bool programCache = true;
    /** Warm-start repeated cells from post-prepare snapshots. */
    bool snapshots = true;
    /** Cross-validate every response against the goldens. */
    bool validate = true;
};

/** Nearest-rank percentile of @p values: the smallest value with at
 *  least a @p p share of them at or below it; 0 when empty.  Both
 *  ServeCore's rendered latencies and bench_serving use it. */
std::uint64_t percentile(std::vector<std::uint64_t> values, double p);

/** The sharded serving core. */
class ServeCore
{
  public:
    explicit ServeCore(const ServeOptions &options);
    ~ServeCore();

    ServeCore(const ServeCore &) = delete;
    ServeCore &operator=(const ServeCore &) = delete;

    /** Non-blocking admission: false when the queue is full (the
     *  request is rejected and accounted to the tenant). */
    bool trySubmit(const ServeRequest &request,
                   std::future<ServeResponse> &out);

    /** Blocking admission: waits for queue space (backpressure). */
    std::future<ServeResponse> submit(const ServeRequest &request);

    /** Block until every accepted request has been served. */
    void drain();

    int lanes() const { return static_cast<int>(lanes_.size()); }

    /** Fabric occupancy in simulated cycles: per fabric, the max
     *  over its lanes' busy cycles (lanes of one fabric overlap in
     *  simulated time); the pool's makespan is the max entry. */
    std::vector<std::uint64_t> fabricBusyCycles() const;

    const ProgramCache &programs() const { return programs_; }
    SnapshotCache::Counters snapshotCounters() const
    { return snapshots_.counters(); }

    /** Per-tenant + core stat dump through the stat layer (p50/p99
     *  latencies are computed over served requests at render
     *  time). */
    std::string renderStats();

  private:
    struct Pending
    {
        ServeRequest request;
        std::promise<ServeResponse> promise;
        std::chrono::steady_clock::time_point enqueued;
    };

    /** One (fabric, region) worker with its persistent machine. */
    struct Lane
    {
        int fabricIndex = 0;
        TileRegion region;
        MachineConfig config;
        Word memoryBase = 0;
        Word memoryWords = 0;
        int nonlinearPes = 0;
        std::unique_ptr<MarionetteMachine> machine;
        std::uint64_t busyCycles = 0;
        std::thread thread;
    };

    struct TenantStats
    {
        explicit TenantStats(const std::string &tenant)
            : group("serve.tenant." + tenant)
        {}
        StatGroup group;
        std::vector<std::uint64_t> latencies;
    };

    void workerLoop(Lane &lane);
    void serveOne(Lane &lane, Pending &pending);
    bool laneCanRun(const Lane &lane,
                    const std::string &workload) const;
    TenantStats &tenantStats(const std::string &tenant);
    void finishResponse(Pending &pending,
                        ServeResponse &&response);

    ServeOptions options_;
    ProgramCache programs_;
    SnapshotCache snapshots_;

    mutable std::mutex mutex_;
    std::condition_variable workAvailable_;
    std::condition_variable spaceAvailable_;
    std::condition_variable idle_;
    std::deque<std::unique_ptr<Pending>> queue_;
    int inFlight_ = 0;
    bool stopping_ = false;

    /** Workload -> needs-nonlinear, resolved once per workload. */
    mutable std::map<std::string, bool> needsNonlinear_;

    mutable std::mutex statsMutex_;
    std::map<std::string, std::unique_ptr<TenantStats>> tenants_;
    mutable StatGroup coreStats_{"serve.core"};
    std::uint64_t peakQueueDepth_ = 0;

    std::vector<std::unique_ptr<Lane>> lanes_;
};

} // namespace serve
} // namespace marionette

#endif // MARIONETTE_SERVE_SERVER_H

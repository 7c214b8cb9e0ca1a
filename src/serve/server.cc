#include "serve/server.h"

#include <algorithm>
#include <cmath>

#include "sim/logging.h"
#include "workloads/workload.h"

namespace marionette
{
namespace serve
{

namespace
{

std::uint64_t
microsSince(std::chrono::steady_clock::time_point since)
{
    return static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            std::chrono::steady_clock::now() - since)
            .count());
}

} // namespace

std::uint64_t
percentile(std::vector<std::uint64_t> values, double p)
{
    if (values.empty())
        return 0;
    std::sort(values.begin(), values.end());
    const auto rank = static_cast<std::size_t>(
        std::ceil(p * static_cast<double>(values.size())));
    return values[std::clamp<std::size_t>(rank, 1, values.size()) -
                  1];
}

ServeCore::ServeCore(const ServeOptions &options)
    : options_(options)
{
    MARIONETTE_ASSERT(options_.fabrics >= 1,
                      "ServeCore: fabrics < 1");
    MARIONETTE_ASSERT(options_.regionsPerFabric >= 1,
                      "ServeCore: regionsPerFabric < 1");
    MARIONETTE_ASSERT(options_.queueCapacity >= 1,
                      "ServeCore: queueCapacity < 1");

    const std::vector<TileRegion> regions =
        carveRegions(options_.fabric, options_.regionsPerFabric);
    for (int fabric = 0; fabric < options_.fabrics; ++fabric) {
        for (std::size_t r = 0; r < regions.size(); ++r) {
            auto lane = std::make_unique<Lane>();
            lane->fabricIndex = fabric;
            lane->region = regions[r];
            lane->config =
                options_.regionsPerFabric == 1
                    ? options_.fabric
                    : regionConfig(options_.fabric, regions[r]);
            lane->memoryBase =
                options_.regionsPerFabric == 1
                    ? 0
                    : regionMemoryBase(options_.fabric,
                                       static_cast<int>(r),
                                       options_.regionsPerFabric);
            lane->memoryWords =
                options_.regionsPerFabric == 1
                    ? 0
                    : regionMemoryWords(
                          options_.fabric,
                          options_.regionsPerFabric);
            lane->nonlinearPes = nonlinearPesInRegion(
                options_.fabric, regions[r]);
            lane->machine =
                std::make_unique<MarionetteMachine>(lane->config);
            lanes_.push_back(std::move(lane));
        }
    }
    for (auto &lane : lanes_)
        lane->thread =
            std::thread([this, &lane] { workerLoop(*lane); });
}

ServeCore::~ServeCore()
{
    {
        std::lock_guard<std::mutex> lock(mutex_);
        stopping_ = true;
    }
    workAvailable_.notify_all();
    spaceAvailable_.notify_all();
    for (auto &lane : lanes_)
        if (lane->thread.joinable())
            lane->thread.join();
}

bool
ServeCore::laneCanRun(const Lane &lane,
                      const std::string &workload) const
{
    auto it = needsNonlinear_.find(workload);
    // Unknown workloads are rejected at submit; a queued request
    // always has a cached entry.
    const bool nonlinear =
        it != needsNonlinear_.end() && it->second;
    return !nonlinear || lane.nonlinearPes > 0;
}

bool
ServeCore::trySubmit(const ServeRequest &request,
                     std::future<ServeResponse> &out)
{
    auto pending = std::make_unique<Pending>();
    pending->request = request;
    pending->enqueued = std::chrono::steady_clock::now();
    std::future<ServeResponse> future =
        pending->promise.get_future();

    {
        std::unique_lock<std::mutex> lock(mutex_);
        auto cached = needsNonlinear_.find(request.workload);
        if (cached == needsNonlinear_.end()) {
            const Workload *w = findWorkload(request.workload);
            if (!w) {
                lock.unlock();
                TenantStats &t = tenantStats(request.tenant);
                {
                    std::lock_guard<std::mutex> stats_lock(
                        statsMutex_);
                    t.group.stat("rejected_unservable").inc();
                }
                ServeResponse response;
                response.error = "unknown workload '" +
                                 request.workload + "'";
                pending->promise.set_value(std::move(response));
                out = std::move(future);
                return true;
            }
            cached = needsNonlinear_
                         .emplace(request.workload,
                                  workloadNeedsNonlinear(*w))
                         .first;
        }
        bool servable = false;
        for (const auto &lane : lanes_)
            if (laneCanRun(*lane, request.workload))
                servable = true;
        if (!servable) {
            lock.unlock();
            TenantStats &t = tenantStats(request.tenant);
            {
                std::lock_guard<std::mutex> stats_lock(
                    statsMutex_);
                t.group.stat("rejected_unservable").inc();
            }
            ServeResponse response;
            response.error =
                "no lane can serve '" + request.workload +
                "' (kernel needs a nonlinear-capable PE)";
            pending->promise.set_value(std::move(response));
            out = std::move(future);
            return true;
        }
        if (static_cast<int>(queue_.size()) >=
            options_.queueCapacity) {
            lock.unlock();
            TenantStats &t = tenantStats(request.tenant);
            std::lock_guard<std::mutex> stats_lock(statsMutex_);
            t.group.stat("rejected_queue_full").inc();
            return false;
        }
        queue_.push_back(std::move(pending));
        peakQueueDepth_ =
            std::max(peakQueueDepth_,
                     static_cast<std::uint64_t>(queue_.size()));
    }
    {
        TenantStats &t = tenantStats(request.tenant);
        std::lock_guard<std::mutex> stats_lock(statsMutex_);
        t.group.stat("accepted").inc();
    }
    workAvailable_.notify_all();
    out = std::move(future);
    return true;
}

std::future<ServeResponse>
ServeCore::submit(const ServeRequest &request)
{
    for (;;) {
        std::future<ServeResponse> future;
        if (trySubmit(request, future))
            return future;
        // Backpressure: wait for queue space, then retry.
        std::unique_lock<std::mutex> lock(mutex_);
        spaceAvailable_.wait(lock, [this] {
            return stopping_ ||
                   static_cast<int>(queue_.size()) <
                       options_.queueCapacity;
        });
        if (stopping_) {
            std::promise<ServeResponse> broken;
            ServeResponse response;
            response.error = "serving core is shutting down";
            broken.set_value(std::move(response));
            return broken.get_future();
        }
    }
}

void
ServeCore::drain()
{
    std::unique_lock<std::mutex> lock(mutex_);
    idle_.wait(lock, [this] {
        return queue_.empty() && inFlight_ == 0;
    });
}

void
ServeCore::workerLoop(Lane &lane)
{
    for (;;) {
        std::unique_ptr<Pending> pending;
        {
            std::unique_lock<std::mutex> lock(mutex_);
            workAvailable_.wait(lock, [this, &lane] {
                if (stopping_)
                    return true;
                for (const auto &p : queue_)
                    if (laneCanRun(lane, p->request.workload))
                        return true;
                return false;
            });
            for (auto it = queue_.begin(); it != queue_.end();
                 ++it) {
                if (laneCanRun(lane, (*it)->request.workload)) {
                    pending = std::move(*it);
                    queue_.erase(it);
                    break;
                }
            }
            if (!pending) {
                // Stopping and nothing left this lane can serve.
                if (stopping_)
                    return;
                continue;
            }
            ++inFlight_;
        }
        spaceAvailable_.notify_all();

        serveOne(lane, *pending);

        {
            std::lock_guard<std::mutex> lock(mutex_);
            --inFlight_;
            if (queue_.empty() && inFlight_ == 0)
                idle_.notify_all();
        }
    }
}

void
ServeCore::serveOne(Lane &lane, Pending &pending)
{
    const ServeRequest &request = pending.request;
    const auto service_start = std::chrono::steady_clock::now();

    ServeResponse response;
    for (std::size_t i = 0; i < lanes_.size(); ++i)
        if (lanes_[i].get() == &lane)
            response.lane = static_cast<int>(i);
    response.region = lane.region;
    response.queueMicros = static_cast<std::uint64_t>(
        std::chrono::duration_cast<std::chrono::microseconds>(
            service_start - pending.enqueued)
            .count());

    const Workload *workload = findWorkload(request.workload);
    MARIONETTE_ASSERT(workload, "queued unknown workload");

    CompilerOptions copts = request.options;
    copts.memoryBase = lane.memoryBase;
    copts.memoryWords = lane.memoryWords;

    // Compile: through the shared cache (the warm path) or a full
    // per-request compile (the bench's cold rung).
    CompileResult compiled =
        options_.programCache
            ? programs_.getOrCompile(*workload, lane.config,
                                     copts)
            : Compiler(lane.config, copts).compile(*workload);
    if (!compiled.ok()) {
        response.error = compiled.report.failedPass + ": " +
                         compiled.report.reason;
        response.serviceMicros = microsSince(service_start);
        finishResponse(pending, std::move(response));
        return;
    }
    const CompiledKernel &kernel = *compiled.kernel;
    MarionetteMachine &machine = *lane.machine;

    // Warm start: restore the cell's post-prepare checkpoint when
    // one exists; otherwise prepare and publish it.
    const std::uint64_t cell_hash = configHash(lane.config);
    std::shared_ptr<const MachineSnapshot> snapshot;
    if (options_.snapshots)
        snapshot = snapshots_.lookup(workload->name(), cell_hash,
                                     copts);
    if (snapshot) {
        // restore() rewinds the stats to the post-prepare capture,
        // which resetStats() below kept tenant-clean.
        machine.restore(*snapshot);
        response.warmStart = true;
    } else if (options_.snapshots) {
        const auto prepare_start =
            std::chrono::steady_clock::now();
        machine.resetStats();
        kernel.prepare(machine);
        const std::uint64_t prepare_micros =
            microsSince(prepare_start);
        snapshots_.store(
            workload->name(), cell_hash, copts,
            std::make_shared<const MachineSnapshot>(
                machine.snapshot()),
            prepare_micros);
    } else {
        machine.resetStats();
        kernel.prepare(machine);
    }

    response.run = machine.run(kernel.cycleBudget);
    response.served = response.run.finished &&
                      response.run.error == RunError::None;
    if (!response.served)
        response.error = response.run.errorDetail.empty()
                             ? runErrorName(response.run.error)
                             : response.run.errorDetail;
    if (options_.validate)
        response.validation =
            kernel.validate(machine, response.run);
    if (request.wantStats)
        response.stats = machine.renderAllStats();
    lane.busyCycles += response.run.cycles;
    response.serviceMicros = microsSince(service_start);
    finishResponse(pending, std::move(response));
}

void
ServeCore::finishResponse(Pending &pending,
                          ServeResponse &&response)
{
    TenantStats &tenant = tenantStats(pending.request.tenant);
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        StatGroup &g = tenant.group;
        if (response.served)
            g.stat("served").inc();
        else
            g.stat("failed").inc();
        if (!response.validation.empty())
            g.stat("bitexact_mismatches").inc();
        if (response.warmStart)
            g.stat("warm_starts").inc();
        g.stat("wait_micros").inc(response.queueMicros);
        g.stat("service_micros").inc(response.serviceMicros);
        g.stat("service_cycles").inc(response.run.cycles);
        if (response.served)
            tenant.latencies.push_back(response.queueMicros +
                                       response.serviceMicros);
    }
    // set_value after the books close so a caller who joins on the
    // future and immediately renders stats sees this request.
    pending.promise.set_value(std::move(response));
}

ServeCore::TenantStats &
ServeCore::tenantStats(const std::string &tenant)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    auto it = tenants_.find(tenant);
    if (it == tenants_.end())
        it = tenants_
                 .emplace(tenant,
                          std::make_unique<TenantStats>(tenant))
                 .first;
    return *it->second;
}

std::vector<std::uint64_t>
ServeCore::fabricBusyCycles() const
{
    std::vector<std::uint64_t> fabric(
        static_cast<std::size_t>(options_.fabrics), 0);
    for (const auto &lane : lanes_)
        fabric[static_cast<std::size_t>(lane->fabricIndex)] =
            std::max(fabric[static_cast<std::size_t>(
                         lane->fabricIndex)],
                     lane->busyCycles);
    return fabric;
}

std::string
ServeCore::renderStats()
{
    std::uint64_t peak_depth = 0;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        peak_depth = peakQueueDepth_;
    }
    std::lock_guard<std::mutex> lock(statsMutex_);
    for (auto &entry : tenants_) {
        TenantStats &tenant = *entry.second;
        tenant.group.stat("latency_p50_micros")
            .set(percentile(tenant.latencies, 0.50));
        tenant.group.stat("latency_p99_micros")
            .set(percentile(tenant.latencies, 0.99));
    }

    coreStats_.stat("lanes").set(
        static_cast<std::uint64_t>(lanes_.size()));
    coreStats_.stat("fabrics").set(
        static_cast<std::uint64_t>(options_.fabrics));
    coreStats_.stat("regions_per_fabric")
        .set(static_cast<std::uint64_t>(
            options_.regionsPerFabric));
    coreStats_.stat("queue_peak_depth").set(peak_depth);
    coreStats_.stat("program_cache_hits").set(programs_.hits());
    coreStats_.stat("program_cache_misses")
        .set(programs_.misses());
    const SnapshotCache::Counters counters =
        snapshots_.counters();
    coreStats_.stat("snapshot_hits").set(counters.hits);
    coreStats_.stat("snapshot_misses").set(counters.misses);
    coreStats_.stat("snapshot_saved_micros")
        .set(counters.savedMicros);

    std::vector<const StatGroup *> groups;
    groups.push_back(&coreStats_);
    for (const auto &entry : tenants_)
        groups.push_back(&entry.second->group);
    return marionette::renderStats(groups);
}

} // namespace serve
} // namespace marionette

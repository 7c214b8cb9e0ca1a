#include "sim/sweep.h"

#include <algorithm>
#include <mutex>

#include "compiler/program_cache.h"
#include "workloads/workload.h"

namespace marionette
{

SweepRunner::SweepRunner(int num_threads)
{
    if (num_threads <= 0) {
        unsigned hw = std::thread::hardware_concurrency();
        num_threads = hw == 0 ? 1 : static_cast<int>(hw);
    }
    numThreads_ = num_threads;
}

void
SweepRunner::dispatch(int n, const std::function<void(int)> &fn)
    const
{
    if (n <= 0)
        return;
    int workers = std::min(numThreads_, n);
    if (workers <= 1) {
        // Same contract as the pool: a throwing job does not lose
        // the rest of the sweep; the first exception is rethrown
        // once every job has run.
        std::exception_ptr first_error;
        for (int i = 0; i < n; ++i) {
            try {
                fn(i);
            } catch (...) {
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
        if (first_error)
            std::rethrow_exception(first_error);
        return;
    }

    std::atomic<int> next{0};
    std::exception_ptr first_error;
    std::mutex error_mutex;
    auto worker = [&]() {
        for (;;) {
            int i = next.fetch_add(1, std::memory_order_relaxed);
            if (i >= n)
                return;
            try {
                fn(i);
            } catch (...) {
                std::lock_guard<std::mutex> lock(error_mutex);
                if (!first_error)
                    first_error = std::current_exception();
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(static_cast<std::size_t>(workers));
    for (int t = 0; t < workers; ++t)
        pool.emplace_back(worker);
    for (std::thread &t : pool)
        t.join();
    if (first_error)
        std::rethrow_exception(first_error);
}

std::shared_ptr<const MachineSnapshot>
SnapshotCache::lookup(const std::string &workload,
                      std::uint64_t config_hash,
                      const CompilerOptions &options)
{
    std::lock_guard<std::mutex> lock(mutex_);
    auto it = entries_.find({workload, config_hash, options});
    if (it == entries_.end()) {
        ++counters_.misses;
        return nullptr;
    }
    ++counters_.hits;
    counters_.savedMicros += it->second.prepareMicros;
    return it->second.snapshot;
}

void
SnapshotCache::store(
    const std::string &workload, std::uint64_t config_hash,
    const CompilerOptions &options,
    std::shared_ptr<const MachineSnapshot> snapshot,
    std::uint64_t prepare_micros)
{
    std::lock_guard<std::mutex> lock(mutex_);
    entries_.emplace(CompiledCellKey{workload, config_hash, options},
                     Entry{std::move(snapshot), prepare_micros});
}

SnapshotCache::Counters
SnapshotCache::counters() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return counters_;
}

std::vector<KernelSweepResult>
SweepRunner::runKernels(const std::vector<KernelSweepJob> &jobs,
                        ProgramCache &cache) const
{
    std::vector<KernelSweepResult> results(jobs.size());
    dispatch(static_cast<int>(jobs.size()), [&](int i) {
        KernelSweepResult &out =
            results[static_cast<std::size_t>(i)];
        try {
            const KernelSweepJob &job =
                jobs[static_cast<std::size_t>(i)];
            // Fault-discovery mode compiles as if the hardware were
            // healthy; the faults are learned from the structured
            // run error, then the retry re-places/re-routes against
            // the full plan.  Compiles always run on the *faulted*
            // machine (job.config); only the compiler's view of the
            // fault plan varies, and the two views have distinct
            // configHash cache keys.
            MachineConfig compile_config = job.config;
            if (job.discoverFaults)
                compile_config.faults = FaultPlan{};
            for (;;) {
                CompileResult compiled = cache.getOrCompile(
                    *job.workload, compile_config, job.options);
                out.report = compiled.report;
                if (!compiled.ok()) {
                    out.compiled = false;
                    out.diagnostic =
                        compiled.report.failedPass + ": " +
                        compiled.report.reason;
                    return;
                }
                out.compiled = true;

                const CompiledKernel &kernel = *compiled.kernel;
                MarionetteMachine machine(job.config);
                kernel.prepare(machine);
                out.run = machine.run(kernel.cycleBudget);
                out.congestion = machine.congestion();
                if (out.run.error != RunError::None &&
                    out.retries == 0 &&
                    configHash(compile_config) !=
                        configHash(job.config)) {
                    if (out.firstError.empty())
                        out.firstError =
                            std::string(
                                runErrorName(out.run.error)) +
                            ": " + out.run.errorDetail;
                    ++out.retries;
                    out.recompiled = true;
                    compile_config = job.config;
                    continue;
                }
                out.validationError =
                    kernel.validate(machine, out.run);
                out.validated = out.validationError.empty();
                return;
            }
        } catch (const std::exception &e) {
            out.jobError = e.what();
        } catch (...) {
            out.jobError = "unknown exception";
        }
    });
    return results;
}

KernelSweepStats
summarizeKernelSweep(const std::vector<KernelSweepResult> &results)
{
    KernelSweepStats stats;
    stats.jobs = static_cast<int>(results.size());
    for (const KernelSweepResult &r : results) {
        if (!r.jobError.empty()) {
            ++stats.jobErrors;
            continue;
        }
        if (!r.compiled) {
            ++stats.rejected;
            continue;
        }
        ++stats.compiled;
        if (r.validated)
            ++stats.validated;
        if (r.run.error != RunError::None)
            ++stats.runErrors;
        if (r.retries > 0) {
            ++stats.retried;
            stats.totalRetries += r.retries;
            if (r.recompiled && r.validated)
                ++stats.recoveredByRecompile;
        }
    }
    return stats;
}

} // namespace marionette

/**
 * @file
 * Parallel sweep runner.
 *
 * The paper's evaluation is thousands of independent (machine
 * configuration, kernel) simulations — ablation grids, scaling
 * sweeps, per-figure series.  This subsystem fans such job sets out
 * across a thread pool while keeping everything deterministic:
 *
 *  - results come back indexed by job, independent of scheduling;
 *  - every job runs on its own MarionetteMachine instance (machines
 *    are not thread-safe and are never shared across jobs);
 *  - a SweepRunner with one thread degrades to the plain serial
 *    loop, so single-core CI produces the same artifacts.
 *
 * runKernels() is the one compile-and-run path for (workload,
 * configuration) grids; the generic map() runs
 * bench/bench_ablation_scaling.cc's array-size sweep.
 */

#ifndef MARIONETTE_SIM_SWEEP_H
#define MARIONETTE_SIM_SWEEP_H

#include <atomic>
#include <exception>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "arch/machine.h"
#include "compiler/program_cache.h"
#include "sim/config.h"

namespace marionette
{

class Workload;

/** One (workload, configuration) cell of a compiled-kernel grid. */
struct KernelSweepJob
{
    const Workload *workload = nullptr;
    MachineConfig config;
    /** Compile options (unroll-cap ablations share the cache
     *  safely: the options are part of the cache key). */
    CompilerOptions options;
    /**
     * Fault-discovery mode: compile fault-obliviously first (as if
     * the hardware were healthy), run on the *faulted* machine, and
     * on a structured run error re-place/re-route against the full
     * fault plan and rerun, once — the dynamic story of a fabric
     * whose faults are found at run time.  Off: the first compile
     * already knows the fault plan (static story), and no retry can
     * help.
     */
    bool discoverFaults = false;
};

/** Outcome of one compiled-kernel grid cell. */
struct KernelSweepResult
{
    /** False when the compiler rejected the kernel. */
    bool compiled = false;
    /** The rejecting pass diagnostic when !compiled. */
    std::string diagnostic;
    /** The compile report of the program that ran (the cache
     *  entry's; after a fault-discovery retry, the recompile's). */
    CompileReport report;
    RunResult run;
    /** True when outputs and memory matched the goldens. */
    bool validated = false;
    /** First mismatch description when !validated. */
    std::string validationError;
    /** Mesh traffic / stall profile of the run (hop and link-load
     *  statistics the mapped-cycles report prints). */
    CongestionReport congestion;
    /** Fault-discovery retries taken, 0 or 1 (see
     *  KernelSweepJob::discoverFaults). */
    int retries = 0;
    /** True when a retry re-placed/re-routed around the faults. */
    bool recompiled = false;
    /** The structured error that triggered the first retry. */
    std::string firstError;
    /** what() of an exception the job threw; empty when the job
     *  completed.  A throwing job never takes the sweep down — the
     *  other jobs' results are still returned. */
    std::string jobError;
};

/** Aggregate counts over a kernel sweep's results. */
struct KernelSweepStats
{
    int jobs = 0;
    /** Compiler accepted the (kernel, config) cell. */
    int compiled = 0;
    /** Compiler rejected it (pass-attributed diagnostic). */
    int rejected = 0;
    /** Run finished healthy and matched the goldens. */
    int validated = 0;
    /** Run ended with a structured RunError. */
    int runErrors = 0;
    /** Jobs that took at least one fault-discovery retry. */
    int retried = 0;
    /** Total retries across all jobs. */
    int totalRetries = 0;
    /** Retries whose recompile then validated. */
    int recoveredByRecompile = 0;
    /** Jobs that threw (jobError set). */
    int jobErrors = 0;
};

/** Fold a kernel sweep's results into aggregate counts. */
KernelSweepStats
summarizeKernelSweep(const std::vector<KernelSweepResult> &results);

/**
 * Warm-start checkpoint cache.
 *
 * After the (already cached) compile, a run starts with
 * CompiledKernel::prepare(): loading the program and filling the
 * scratchpad with the workload's inputs.  serve::ServeCore restores
 * a machine snapshot taken right after a cell's first prepare()
 * instead when the same (workload, config, compile-options) cell is
 * requested again.  Restoring is bit-identical to preparing from
 * scratch (see MarionetteMachine::restore), so warm-started results
 * are the same to the byte.
 *
 * Thread-safe; snapshots are shared immutably across lanes.  Keyed
 * by the program cache's CompiledCellKey, so both run paths
 * (eventDrivenSim on or off) share one checkpoint.
 */
class SnapshotCache
{
  public:
    struct Counters
    {
        std::uint64_t hits = 0;
        std::uint64_t misses = 0;
        /** Microseconds of prepare() work skipped by hits. */
        std::uint64_t savedMicros = 0;
    };

    /** Cached checkpoint for a key, or nullptr on miss. */
    std::shared_ptr<const MachineSnapshot>
    lookup(const std::string &workload,
           std::uint64_t config_hash,
           const CompilerOptions &options);

    /** Store a checkpoint (first writer wins) and account the
     *  prepare cost @p prepare_micros for future hit savings. */
    void store(const std::string &workload,
               std::uint64_t config_hash,
               const CompilerOptions &options,
               std::shared_ptr<const MachineSnapshot> snapshot,
               std::uint64_t prepare_micros);

    Counters counters() const;

  private:
    struct Entry
    {
        std::shared_ptr<const MachineSnapshot> snapshot;
        std::uint64_t prepareMicros = 0;
    };

    mutable std::mutex mutex_;
    std::map<CompiledCellKey, Entry> entries_;
    Counters counters_;
};

/** Deterministic thread-pool runner for independent jobs. */
class SweepRunner
{
  public:
    /** @param num_threads worker count; 0 picks the hardware
     *  concurrency (at least 1). */
    explicit SweepRunner(int num_threads = 0);

    int numThreads() const { return numThreads_; }

    /**
     * Evaluate @p fn(0) .. @p fn(n - 1) across the pool and return
     * the results in index order.  @p fn must be safe to call
     * concurrently from several threads for distinct indices.  The
     * first exception thrown by any job is rethrown on the calling
     * thread after the pool drains.
     */
    template <typename R>
    std::vector<R>
    map(int n, const std::function<R(int)> &fn) const
    {
        std::vector<R> results(static_cast<std::size_t>(n));
        dispatch(n, [&](int i) {
            results[static_cast<std::size_t>(i)] = fn(i);
        });
        return results;
    }

    /**
     * Compile-and-run a (workload x configuration) grid through the
     * CDFG->Program compiler, sharing @p cache across jobs so every
     * (kernel, config) pair compiles exactly once per process — the
     * per-grid compile-once guarantee sweeps rely on.  Each result
     * reports the compile outcome (or the rejecting diagnostic),
     * the machine run, and the bit-exact golden cross-validation.
     */
    std::vector<KernelSweepResult>
    runKernels(const std::vector<KernelSweepJob> &jobs,
               ProgramCache &cache) const;

  private:
    /** Pull-model worker pool over [0, n) with index-order claims. */
    void dispatch(int n, const std::function<void(int)> &fn) const;

    int numThreads_;
};

} // namespace marionette

#endif // MARIONETTE_SIM_SWEEP_H

/**
 * @file
 * Compiled-program cache keyed by (workload, architectural config
 * hash, compile options).
 *
 * Grid sweeps evaluate the same kernel on many configurations and
 * the same configuration on many kernels — and the parallel
 * SweepRunner does it from several threads at once.  The cache
 * makes each (workload, config) pair compile exactly once per
 * process; every other job shares the immutable CompiledKernel.
 * Failed compilations are cached too (as null kernels plus their
 * report), so a sweep over unsupported kernels does not re-run the
 * pass pipeline per job.
 *
 * The key uses configHash() (sim/config.h), which covers every
 * architectural field and deliberately ignores the eventDrivenSim
 * simulator toggle — both hot-path variants share an entry — and
 * compares CompilerOptions field by field.
 */

#ifndef MARIONETTE_COMPILER_PROGRAM_CACHE_H
#define MARIONETTE_COMPILER_PROGRAM_CACHE_H

#include <cstdint>
#include <map>
#include <mutex>
#include <string>
#include <tuple>

#include "compiler/compiler.h"

namespace marionette
{

/** Identity of one compiled program: workload name,
 *  configHash(config) and the compile options.  The program cache
 *  and the SnapshotCache (sim/sweep.h) both key on it. */
using CompiledCellKey =
    std::tuple<std::string, std::uint64_t, CompilerOptions>;

/** Thread-safe memoization of Compiler::compile. */
class ProgramCache
{
  public:
    /** Compile (or reuse) @p workload for @p config under
     *  @p options (the options are part of the key: two unroll
     *  caps or scratchpad windows are different programs). */
    CompileResult getOrCompile(const Workload &workload,
                               const MachineConfig &config,
                               const CompilerOptions &options = {});

    std::uint64_t hits() const;
    std::uint64_t misses() const;
    /** Distinct (workload, config, options) entries held. */
    std::size_t size() const;

  private:
    mutable std::mutex mutex_;
    std::map<CompiledCellKey, CompileResult> entries_;
    std::uint64_t hits_ = 0;
    std::uint64_t misses_ = 0;
};

} // namespace marionette

#endif // MARIONETTE_COMPILER_PROGRAM_CACHE_H

#include "compiler/program_cache.h"

namespace marionette
{

CompileResult
ProgramCache::getOrCompile(const Workload &workload,
                           const MachineConfig &config,
                           const CompilerOptions &options)
{
    const CompiledCellKey key{workload.name(), configHash(config),
                              options};
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = entries_.find(key);
        if (it != entries_.end()) {
            ++hits_;
            return it->second;
        }
    }

    // Compile outside the lock: distinct keys compile in parallel.
    // A racing duplicate of the same key is harmless — the kernels
    // are deterministic, and first-insert wins below.
    CompileResult result =
        Compiler(config, options).compile(workload);

    std::lock_guard<std::mutex> lock(mutex_);
    auto [it, inserted] = entries_.emplace(key, result);
    if (inserted) {
        ++misses_;
        return result;
    }
    ++hits_;
    return it->second;
}

std::uint64_t
ProgramCache::hits() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return hits_;
}

std::uint64_t
ProgramCache::misses() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return misses_;
}

std::size_t
ProgramCache::size() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    return entries_.size();
}

} // namespace marionette

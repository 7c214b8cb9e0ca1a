/**
 * Concurrency stress for the shared caches: ProgramCache and
 * SnapshotCache hammered with mixed hits and misses from many
 * threads at once.  The assertions are light on
 * purpose — the point of this test is to run under
 * ThreadSanitizer (-DMARIONETTE_SANITIZE=thread) and come back
 * clean; a data race in either cache shows up as a TSan report,
 * not a value mismatch.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <memory>
#include <thread>
#include <vector>

#include "core/marionette.h"
#include "sim/sweep.h"

using namespace marionette;

TEST(CacheStress, ConcurrentMixedHitMissFromManyThreads)
{
    constexpr int kThreads = 8;
    constexpr int kIters = 24;

    const MachineConfig fabric = evalFabric();
    const std::uint64_t fabric_hash = configHash(fabric);
    ProgramCache programs;
    SnapshotCache snapshots;

    // Two workloads x two option sets = four distinct cells; every
    // thread cycles through all four, so after the first touches
    // the traffic is contended hits with occasional racing misses.
    const char *workloads[] = {"SI", "CRC"};
    CompilerOptions option_sets[2];
    option_sets[0].unrollFactor = 1;
    option_sets[1].unrollFactor = 1;
    option_sets[1].memoryBase = 32768;
    option_sets[1].memoryWords = 32768;

    std::atomic<int> failures{0};
    std::vector<std::thread> threads;
    for (int t = 0; t < kThreads; ++t) {
        threads.emplace_back([&, t] {
            // One persistent machine per thread, reused across
            // prepare/restore exactly like a serving lane.
            MarionetteMachine machine(fabric);
            for (int i = 0; i < kIters; ++i) {
                const int pick = (t + i) % 4;
                const Workload *workload =
                    findWorkload(workloads[pick / 2]);
                const CompilerOptions &copts =
                    option_sets[pick % 2];
                CompileResult compiled = programs.getOrCompile(
                    *workload, fabric, copts);
                if (!compiled.ok()) {
                    ++failures;
                    continue;
                }
                auto snapshot = snapshots.lookup(
                    workload->name(), fabric_hash, copts);
                if (snapshot) {
                    machine.restore(*snapshot);
                } else {
                    compiled.kernel->prepare(machine);
                    snapshots.store(
                        workload->name(), fabric_hash, copts,
                        std::make_shared<const MachineSnapshot>(
                            machine.snapshot()),
                        1);
                }
            }
        });
    }
    for (std::thread &thread : threads)
        thread.join();

    EXPECT_EQ(failures.load(), 0);
    // Four cells compiled at most... once each per racing group —
    // the cache may compile a cell twice when two threads miss
    // simultaneously, but hits must dominate.
    const auto counters = snapshots.counters();
    EXPECT_GE(counters.hits + counters.misses,
              static_cast<std::uint64_t>(kThreads * kIters));
    EXPECT_GT(counters.hits, counters.misses);
    EXPECT_GT(programs.hits(), programs.misses());
}

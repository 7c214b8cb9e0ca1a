/**
 * @file
 * Sweep-runner tests: deterministic result ordering independent of
 * thread count, and the thread-count fallback.  The compile-and-run
 * path (runKernels) is covered by compile_pipeline_test and
 * fault_resilience_test.
 */

#include <gtest/gtest.h>

#include "sim/sweep.h"

namespace marionette
{
namespace
{

TEST(Sweep, MapReturnsResultsInIndexOrder)
{
    SweepRunner runner(4);
    std::vector<int> squares = runner.map<int>(
        100, [](int i) { return i * i; });
    ASSERT_EQ(squares.size(), 100u);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(squares[static_cast<std::size_t>(i)], i * i);
}

TEST(Sweep, ZeroAndNegativeThreadCountsFallBack)
{
    EXPECT_GE(SweepRunner(0).numThreads(), 1);
    EXPECT_GE(SweepRunner(-3).numThreads(), 1);
    EXPECT_EQ(SweepRunner(7).numThreads(), 7);
}

} // namespace
} // namespace marionette

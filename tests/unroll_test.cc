/**
 * @file
 * Tests of the spatial unroll pass and its backend contract
 * (compiler/unroll.cc + the replicated lowering): replication never
 * changes results (every supported kernel stays bit-exact at every
 * factor), the replication plan is deterministic, the route pass's
 * multicast link-load prediction matches what the machine actually
 * charges, and the legality diagnostics are pinned so a silent
 * legality change cannot slip through.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdlib>
#include <string>

#include "arch/machine.h"
#include "compiler/compiler.h"
#include "workloads/kernels.h"

namespace marionette
{
namespace
{

/** Compile @p name at @p factor; the caller asserts on ok(). */
CompileResult
compileAt(const std::string &name, int factor)
{
    CompilerOptions opts;
    opts.unrollFactor = factor;
    return Compiler(evalFabric(), opts).compile(name);
}

/** Run a compiled kernel; returns the validation error ("" = ok)
 *  and the mapped cycles through the out-params. */
std::string
runKernel(const CompiledKernel &kernel, std::uint64_t &cycles,
          std::uint64_t &max_link_load)
{
    MarionetteMachine machine(evalFabric());
    kernel.prepare(machine);
    RunResult run = machine.run(kernel.cycleBudget);
    cycles = run.cycles;
    const std::vector<std::uint64_t> &loads =
        machine.mesh().linkLoads();
    max_link_load =
        loads.empty()
            ? 0
            : *std::max_element(loads.begin(), loads.end());
    return kernel.validate(machine, run);
}

bool
hasNote(const CompileReport &report, const std::string &pass,
        const std::string &needle)
{
    for (const CompilerPassNote &n : report.notes)
        if (n.pass == pass &&
            n.message.find(needle) != std::string::npos)
            return true;
    return false;
}

/** The "replicated xN" factor the lowering committed to; 1 when no
 *  phase replicated. */
int
committedFactor(const CompileReport &report)
{
    int factor = 1;
    for (const CompilerPassNote &n : report.notes) {
        std::size_t at = n.message.find("replicated x");
        if (n.pass == "lower" && at != std::string::npos)
            factor = std::max(
                factor, std::atoi(n.message.c_str() + at + 12));
    }
    return factor;
}

class UnrollBitExact
    : public ::testing::TestWithParam<const Workload *>
{
};

/**
 * The correctness contract: for every supported kernel, the
 * automatically-unrolled program reproduces the factor-1 program's
 * golden streams and memory bit-exactly, and is never slower.
 * (Kernels the unroll pass leaves alone compile to the same program
 * twice — the comparison is then trivially exact.)
 */
TEST_P(UnrollBitExact, AutoFactorMatchesFactor1)
{
    const Workload &w = *GetParam();
    CompileResult base = compileAt(w.name(), 1);
    CompileResult unrolled = compileAt(w.name(), 0);
    ASSERT_EQ(base.ok(), unrolled.ok()) << w.name();
    if (!base.ok())
        return; // rejection parity is compile_pipeline_test's job.

    std::uint64_t base_cycles = 0, base_load = 0;
    std::uint64_t fast_cycles = 0, fast_load = 0;
    EXPECT_EQ(runKernel(*base.kernel, base_cycles, base_load), "")
        << w.name() << " at factor 1";
    EXPECT_EQ(
        runKernel(*unrolled.kernel, fast_cycles, fast_load), "")
        << w.name() << " at the automatic factor\n"
        << unrolled.report.toString();
    EXPECT_LE(fast_cycles, base_cycles)
        << w.name() << ": replication must never cost cycles";
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, UnrollBitExact,
    ::testing::ValuesIn(allWorkloads()),
    [](const auto &info) { return info.param->name(); });

TEST(Unroll, GemmReplicatesAndScales)
{
    // GEMM's i_loop is annotated parallel; 64 trips cap at a
    // candidate factor 16 and the lowering's capacity refinement
    // settles on 8 replicas on the 10x10 fabric.
    CompileResult r = compileAt("GEMM", 0);
    ASSERT_TRUE(r.ok()) << r.report.toString();
    EXPECT_TRUE(hasNote(r.report, "unroll",
                        "phase 'i_loop': stripe-safe, candidate "
                        "factor 16 over 64 iterations"))
        << r.report.toString();
    EXPECT_EQ(committedFactor(r.report), 8)
        << r.report.toString();

    // And the replicas pay off end to end: ~F times fewer cycles
    // than the factor-1 program (fill and drain keep it from the
    // exact ratio, but never below half of it).
    CompileResult base = compileAt("GEMM", 1);
    ASSERT_TRUE(base.ok());
    std::uint64_t cycles = 0, load = 0, base_cycles = 0,
                  base_load = 0;
    ASSERT_EQ(runKernel(*r.kernel, cycles, load), "");
    ASSERT_EQ(runKernel(*base.kernel, base_cycles, base_load), "");
    EXPECT_LT(cycles, base_cycles / 4)
        << cycles << " vs " << base_cycles;
}

TEST(Unroll, ReplicationPlanIsDeterministic)
{
    // Two independent compiles commit to byte-identical plans:
    // same pass notes (the unroll decisions and the committed
    // factors are pinned in them) and the same machine behavior.
    CompileResult a = compileAt("GEMM", 0);
    CompileResult b = compileAt("GEMM", 0);
    ASSERT_TRUE(a.ok());
    ASSERT_TRUE(b.ok());
    // Every note but the wall-clock [timings] line must match.
    auto plan = [](const CompileReport &report) {
        std::string s;
        for (const CompilerPassNote &n : report.notes)
            if (n.pass != "timings")
                s += "[" + n.pass + "] " + n.message + "\n";
        return s;
    };
    EXPECT_EQ(plan(a.report), plan(b.report));
    std::uint64_t cycles_a = 0, load_a = 0, cycles_b = 0,
                  load_b = 0;
    EXPECT_EQ(runKernel(*a.kernel, cycles_a, load_a), "");
    EXPECT_EQ(runKernel(*b.kernel, cycles_b, load_b), "");
    EXPECT_EQ(cycles_a, cycles_b);
    EXPECT_EQ(load_a, load_b);
}

class MulticastCharge
    : public ::testing::TestWithParam<const char *>
{
};

/**
 * The multicast contract between the route pass and the mesh: the
 * compile-time route-tree prediction of the hottest link's load is
 * exactly what the machine charges on a fault-free run.  A word
 * fanned out to N replicas must traverse each shared link once —
 * if the machine double-charged (or the predictor guessed), these
 * numbers would diverge.
 */
TEST_P(MulticastCharge, PredictionMatchesMachineExactly)
{
    CompileResult r = compileAt(GetParam(), 0);
    ASSERT_TRUE(r.ok()) << r.report.toString();
    std::uint64_t predicted = 0;
    for (const CompilerPassNote &n : r.report.notes) {
        std::size_t at =
            n.message.find("predict max link load ");
        if (n.pass == "route" && at != std::string::npos)
            predicted = std::strtoull(
                n.message.c_str() + at + 22, nullptr, 10);
    }
    ASSERT_GT(predicted, 0u) << r.report.toString();

    std::uint64_t cycles = 0, measured = 0;
    ASSERT_EQ(runKernel(*r.kernel, cycles, measured), "");
    EXPECT_EQ(measured, predicted) << GetParam();
}

INSTANTIATE_TEST_SUITE_P(Kernels, MulticastCharge,
                         ::testing::Values("GEMM", "LDPC", "NW"));

TEST(Unroll, RecurrenceDiagnosticsArePinned)
{
    // Legality rejections are pinned notes, not silent factor-1
    // fallbacks: LDPC's llr array and NW's M matrix are true
    // memory recurrences, and each says so.
    CompileResult ldpc = compileAt("LDPC", 0);
    ASSERT_TRUE(ldpc.ok());
    EXPECT_TRUE(hasNote(ldpc.report, "unroll",
                        "memory recurrence on array 'llr' (loaded "
                        "and stored) forbids replication"))
        << ldpc.report.toString();
    EXPECT_EQ(committedFactor(ldpc.report), 1);

    CompileResult nw = compileAt("NW", 0);
    ASSERT_TRUE(nw.ok());
    EXPECT_TRUE(hasNote(nw.report, "unroll",
                        "memory recurrence on array 'M' (loaded "
                        "and stored) forbids replication"))
        << nw.report.toString();
    EXPECT_EQ(committedFactor(nw.report), 1);
}

TEST(Unroll, OptOutStaysUnreplicated)
{
    // An unroll cap of 1 turns replication off by option.
    CompileResult off = compileAt("GEMM", 1);
    ASSERT_TRUE(off.ok());
    EXPECT_TRUE(
        hasNote(off.report, "unroll", "replication off by option"));
    EXPECT_EQ(committedFactor(off.report), 1);
}

} // namespace
} // namespace marionette

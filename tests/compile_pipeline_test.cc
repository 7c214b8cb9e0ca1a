/**
 * @file
 * End-to-end tests of the CDFG->Program compiler pipeline
 * (compiler/compiler.h): every supported Table-5 workload compiles
 * on two machine configurations, runs on the cycle-accurate
 * machine, and reproduces the golden output streams and memory
 * regions bit-exactly; every unsupported workload is rejected with
 * a clean pass-attributed diagnostic instead of UB; and the
 * compiled-program cache makes (workload x config) grids compile
 * each kernel exactly once.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <set>

#include "arch/machine.h"
#include "compiler/compiler.h"
#include "compiler/program_cache.h"
#include "model/arch_model.h"
#include "net/control_network.h"
#include "sim/sweep.h"

namespace marionette
{
namespace
{

/** The supported-workload matrix this repo commits to. */
const std::set<std::string> kSupported = {
    "CRC", "ADPCM", "GEMM", "CO",   "SI", "GP",
    "NW",  "VI",    "HT",   "LDPC", "SCD"};

/** The analytic Marionette model's cycle estimate for @p w on
 *  @p config's fabric size and timing. */
double
analyticEstimate(const Workload &w, const MachineConfig &config)
{
    ModelParams params;
    params.numPes = config.numPes();
    params.configLat = static_cast<double>(config.configLatency);
    params.execLat = static_cast<double>(config.executeLatency);
    params.ctrlNetLat = static_cast<double>(ControlNetwork::latency());
    params.dataNetLat = static_cast<double>(config.dataNetLatency);
    return makeMarionette(params, config.features)
        ->run(w.profile())
        .cycles;
}

/** Machine-run size over profiled size, where the two differ by
 *  design.  SCD's machine run recomputes one 64-lane level in each
 *  of 7 rounds (896 slots of llr_loop and psum_loop), while its
 *  profile decodes all 2048 channels (33 792 iterations of the same
 *  two loops), so its model estimate is scaled to the machine's
 *  size; every other kernel compares unscaled. */
double
machineScale(const Workload &w)
{
    if (w.name() != "SCD")
        return 1.0;
    const WorkloadMachineSpec spec = w.machineSpec();
    auto trips = [&](const char *header) {
        const MachineLoopBound &b = spec.loopBounds.at(header);
        return static_cast<double>((b.bound - b.start) / b.step);
    };
    const double machine =
        trips("phase_loop") * (trips("llr_loop") + trips("psum_loop"));
    const WorkloadProfile profile = w.profile();
    double profiled = 0.0;
    for (const BasicBlock &b : profile.cdfg.blocks())
        if (b.name == "llr_loop" || b.name == "psum_loop")
            profiled += static_cast<double>(profile.iterationsOf(b.id));
    return machine / profiled;
}

/** A second architecture: slower mesh, more banks, deeper FIFOs. */
MachineConfig
altConfig()
{
    MachineConfig config = evalFabric();
    config.meshHopLatency = 2;
    config.dataNetLatency = 12;
    config.scratchpadBanks = 8;
    config.controlFifoDepth = 8;
    return config;
}

class CompilePipeline
    : public ::testing::TestWithParam<const Workload *>
{
};

TEST_P(CompilePipeline, BitExactOnTwoConfigs)
{
    const Workload &w = *GetParam();
    const bool supported = kSupported.count(w.name()) > 0;
    for (const MachineConfig &config :
         {evalFabric(), altConfig()}) {
        CompileResult r = Compiler(config).compile(w);
        if (!supported) {
            // Unsupported kernels reject cleanly: a named pass and
            // a reason, never an assert or a null dereference.
            EXPECT_FALSE(r.ok()) << w.name();
            EXPECT_FALSE(r.report.failedPass.empty()) << w.name();
            EXPECT_FALSE(r.report.reason.empty()) << w.name();
            continue;
        }
        ASSERT_TRUE(r.ok())
            << w.name() << "\n" << r.report.toString();
        const CompiledKernel &kernel = *r.kernel;
        MarionetteMachine machine(config);
        kernel.prepare(machine);
        RunResult run = machine.run(kernel.cycleBudget);
        EXPECT_EQ(kernel.validate(machine, run), "")
            << w.name() << "\n" << kernel.report.toString();

        // The compiler's fixed control-network configuration
        // (Sec. 4.1): one route per PE that sends control, covering
        // its instructions' destinations.  The machine models only
        // the network's latency, so routability is checked here, once
        // per compile cell.  It cannot fail: emit creates only
        // single-destination links (a phase's generator to its drain
        // loop, the drain loop to the next phase's generator), each
        // from its own PE to a distinct PE, and the first CS stage
        // routes a single-destination link on the source's own
        // corridor.
        std::vector<ControlRoute> routes;
        std::set<int> listeners;
        for (const PeProgram &p : kernel.program.pes) {
            std::set<int> dests;
            for (const Instruction &in : p.instrs)
                dests.insert(in.ctrlDests.begin(), in.ctrlDests.end());
            if (dests.empty())
                continue;
            for (int d : dests)
                ASSERT_TRUE(listeners.insert(d).second)
                    << w.name() << ": PE " << d
                    << " listens to two sources";
            routes.push_back(
                ControlRoute{p.pe, {dests.begin(), dests.end()}});
        }
        if (!routes.empty()) {
            EXPECT_TRUE(ControlNetwork(config.numPes(),
                                       config.controlFifoCount + 2)
                            .configure(routes))
                << w.name();
        }

        // Analytic cross-check: the model is an idealized bound;
        // the cycle-accurate machine lands within a sane band of
        // it (flattened lowering pays recurrence, fence and
        // memory-port II, so it is slower, never orders of
        // magnitude off).  Kernels whose lowering masks slots or
        // serializes through store-chain fences (NW, HT, LDPC) or
        // runs a reduced machine size (VI, HT) get a wider band.
        // SCD's reduced size has a stated scale (machineScale), so
        // it is held to the narrow band at matched size.
        const double analytic =
            analyticEstimate(w, config) * machineScale(w);
        ASSERT_GT(analytic, 0.0) << w.name();
        const std::set<std::string> wide_band = {"NW", "VI", "HT",
                                                 "LDPC"};
        double lo = wide_band.count(w.name()) ? 0.05 : 0.5;
        double hi = wide_band.count(w.name()) ? 1024.0 : 64.0;
        double ratio = static_cast<double>(run.cycles) / analytic;
        EXPECT_GT(ratio, lo) << w.name();
        EXPECT_LT(ratio, hi) << w.name();
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, CompilePipeline,
    ::testing::ValuesIn(allWorkloads()),
    [](const auto &info) { return info.param->name(); });

TEST(CompilePipeline, SupportedMatrixIsExact)
{
    std::vector<std::string> names =
        supportedWorkloads(evalFabric());
    std::set<std::string> got(names.begin(), names.end());
    EXPECT_EQ(got, kSupported);
    // The acceptance floor: at least 10 of the 13 compile and run.
    EXPECT_GE(got.size(), 10u);
}

TEST(CompilePipeline, DiagnosticsNameTheBlocker)
{
    Compiler compiler(evalFabric());
    // MS's pair loop advances by a data-dependent stride.
    CompileResult ms = compiler.compile("MS");
    ASSERT_FALSE(ms.ok());
    EXPECT_EQ(ms.report.failedPass, "structure");
    EXPECT_NE(ms.report.reason.find("pair_loop"),
              std::string::npos);
    // FFT's bit-reverse swap now predicates (the skip path defines
    // 'vi' too); the frontier is the group loop's data-dependent
    // stride.
    CompileResult fft = compiler.compile("FFT");
    ASSERT_FALSE(fft.ok());
    EXPECT_EQ(fft.report.failedPass, "structure");
    EXPECT_NE(fft.report.reason.find("group_loop"),
              std::string::npos);
    // Unknown names fail in the driver, not with a crash.
    CompileResult nope = compiler.compile("nope");
    ASSERT_FALSE(nope.ok());
    EXPECT_EQ(nope.report.failedPass, "driver");
}

TEST(CompilePipeline, CapacityRejectionsAreClean)
{
    // A 4x4 array cannot hold CO's 8-tap pipeline (PE capacity is
    // a placement concern, so the place pass owns the rejection)...
    MachineConfig small = evalFabric();
    small.rows = 4;
    small.cols = 4;
    CompileResult co = Compiler(small).compile("CO");
    ASSERT_FALSE(co.ok());
    EXPECT_EQ(co.report.failedPass, "place");
    EXPECT_NE(co.report.reason.find("PEs"), std::string::npos);
    // ...and the default 16 KiB scratchpad cannot hold CO's data.
    MachineConfig tiny = evalFabric();
    tiny.scratchpadBytes = 16 * 1024;
    CompileResult co2 = Compiler(tiny).compile("CO");
    ASSERT_FALSE(co2.ok());
    EXPECT_EQ(co2.report.failedPass, "emit");
    EXPECT_NE(co2.report.reason.find("scratchpad"),
              std::string::npos);
}

TEST(CompilePipeline, SmallKernelsFitThePaperPrototype)
{
    // The 4x4 / 16 KiB Table-4 prototype runs the compact kernels
    // end to end — the compiler is not tied to enlarged fabrics.
    MachineConfig config; // paper defaults.
    for (const char *name : {"SI", "CRC"}) {
        CompileResult r = Compiler(config).compile(name);
        ASSERT_TRUE(r.ok())
            << name << "\n" << r.report.toString();
        MarionetteMachine machine(config);
        r.kernel->prepare(machine);
        RunResult run = machine.run(r.kernel->cycleBudget);
        EXPECT_EQ(r.kernel->validate(machine, run), "") << name;
    }
}

TEST(CompilePipeline, GridSweepCompilesEachKernelOnce)
{
    std::vector<KernelSweepJob> jobs;
    const MachineConfig configs[] = {evalFabric(), altConfig()};
    // Two identical passes over (config x kernel): the second pass
    // (and every duplicate cell) must hit the cache.
    for (int rep = 0; rep < 2; ++rep)
        for (const MachineConfig &config : configs)
            for (const char *name : {"SI", "CRC", "GP", "MS"})
                jobs.push_back(
                    KernelSweepJob{findWorkload(name), config});

    ProgramCache cache;
    SweepRunner runner;
    std::vector<KernelSweepResult> results =
        runner.runKernels(jobs, cache);

    EXPECT_EQ(cache.misses(), 8u); // 2 configs x 4 kernels.
    EXPECT_EQ(cache.hits(), jobs.size() - 8u);
    EXPECT_EQ(cache.size(), 8u);
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const KernelSweepResult &r = results[i];
        if (std::string(jobs[i].workload->name()) == "MS") {
            EXPECT_FALSE(r.compiled);
            EXPECT_FALSE(r.diagnostic.empty());
            EXPECT_EQ(r.report.failedPass, "structure");
        } else {
            ASSERT_TRUE(r.compiled) << r.diagnostic;
            EXPECT_TRUE(r.validated) << r.validationError;
            EXPECT_GT(r.report.scheduledCycleEstimate, 0.0);
        }
    }
}

TEST(CompilePipeline, SweepResultsIndependentOfThreadCount)
{
    std::vector<KernelSweepJob> jobs;
    for (const char *name : {"SI", "CRC", "GP"})
        jobs.push_back(
            KernelSweepJob{findWorkload(name), evalFabric()});

    ProgramCache cache_serial, cache_parallel;
    std::vector<KernelSweepResult> serial =
        SweepRunner(1).runKernels(jobs, cache_serial);
    std::vector<KernelSweepResult> parallel =
        SweepRunner(4).runKernels(jobs, cache_parallel);
    ASSERT_EQ(serial.size(), parallel.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
        EXPECT_EQ(serial[i].run.cycles, parallel[i].run.cycles);
        EXPECT_EQ(serial[i].run.outputs, parallel[i].run.outputs);
        EXPECT_TRUE(serial[i].validated);
        EXPECT_TRUE(parallel[i].validated);
    }
}

TEST(CompilePipeline, WorkloadNamesListsPlotOrder)
{
    std::vector<std::string> names = workloadNames();
    ASSERT_EQ(names.size(), 13u);
    EXPECT_EQ(names.front(), "MS");
    EXPECT_EQ(names.back(), "GP");
    for (const std::string &n : names)
        EXPECT_NE(findWorkload(n), nullptr) << n;
}

} // namespace
} // namespace marionette

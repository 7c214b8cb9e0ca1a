/**
 * @file
 * One-shot reproduction driver: prints every table and figure of
 * the paper's evaluation section from this repository's models,
 * then compiles the supported kernels through the CDFG->Program
 * pipeline and cross-validates them on the cycle-accurate machine.
 *
 * Each artifact has one renderer (model/eval.h's paperArtifacts());
 * the tour prints them all for the --kernels selection, and each
 * bench/ binary prints its own for all 13 kernels, then times the
 * machinery behind it.  Every kernel compile-and-run goes through
 * the parallel sweep runner's runKernels() (sim/sweep.h), whose
 * results carry the compile report.  Results are keyed by job, so
 * every artifact is identical on any thread count.
 *
 * Flags:
 *   --list         print the 13 workload abbreviations and exit.
 *   --kernels=a,b  restrict the grid (and the machine validation)
 *                  to the named kernels.
 *   --jobs=N       sweep-runner thread count (default: hardware).
 *   --report=PATH  write machine-readable per-kernel compile
 *                  coverage (status, failed pass, cycles, scheduled
 *                  estimate, compile time) as JSON — the bench
 *                  trajectory's compiler data points
 *                  (BENCH_compile_coverage.json).
 *   --check-coverage=PATH
 *                  compare the current coverage (kernel, compiled,
 *                  failed pass, *and cycles within a tolerance
 *                  band*, mapped-to-scheduled ratio within its
 *                  band) against a checked-in expectation and
 *                  exit non-zero on any difference, so a change
 *                  can never quietly drop a working kernel or
 *                  regress its mapped cycles.  Every compiled
 *                  kernel's mapped cycles must also lie within
 *                  1.25x of its scheduled estimate.
 *   --mapped-report=PATH
 *                  compile and run every kernel on both evaluation
 *                  fabrics and write its mapped cycles and mesh
 *                  hop/congestion stats per (kernel, fabric) cell
 *                  as JSON (BENCH_mapped_cycles.json).
 *   --unroll-ablation=PATH
 *                  compile GEMM and LDPC at a ladder of unroll
 *                  caps on the primary fabric, run each on the
 *                  machine, and write the per-factor cycles /
 *                  chosen-factor / bit-exactness table as JSON
 *                  (BENCH_unroll_ablation.json).
 *   --faults       sweep seeded fault plans over the selected
 *                  kernels instead of the model tour; exit non-zero
 *                  on silent corruption or a thrown job.
 *   --fault-grid=DEADPES,DEADLINKS
 *                  with --faults: one grid cell (plus the zero-fault
 *                  baseline) instead of the full 0..8 x 0..4 grid.
 *   --resilience-report=PATH
 *                  with --faults: write the per-cell survival table
 *                  as JSON (BENCH_resilience.json).
 *
 * Every JSON artifact goes through the shared report writer
 * (sim/report.h), so each leads with a "schema_version" field.
 */

#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/program_cache.h"
#include "core/marionette.h"
#include "sim/report.h"

using namespace marionette;

namespace
{

struct Options
{
    bool list = false;
    int jobs = 0;
    std::vector<std::string> kernels; ///< empty = all 13.
    std::string reportPath;
    std::string checkCoveragePath;
    std::string mappedReportPath;
    /** Unroll-factor ablation mode: compile GEMM/LDPC at a ladder
     *  of caps and write the table to this path. */
    std::string unrollAblationPath;
    /** Fault-resilience mode: sweep seeded fault plans over the
     *  selected kernels instead of the model tour. */
    bool faults = false;
    /** Single (dead PEs, dead links) cell; -1 = the full grid. */
    int faultDeadPes = -1;
    int faultDeadLinks = -1;
    std::string resilienceReportPath;
};

bool
usageError(const char *why, const char *detail)
{
    std::fprintf(stderr, "paper_eval: %s%s%s\n", why,
                 detail ? ": " : "", detail ? detail : "");
    std::fprintf(stderr,
                 "usage: paper_eval [--list] [--kernels=a,b,c] "
                 "[--jobs=N] [--report=PATH] "
                 "[--check-coverage=PATH] [--mapped-report=PATH] "
                 "[--unroll-ablation=PATH] [--faults] "
                 "[--fault-grid=DEADPES,DEADLINKS] "
                 "[--resilience-report=PATH]\n");
    return false;
}

/** Strict bounded integer parse; no atoi silence. */
bool
parseCount(const char *text, long min, long max, long &out)
{
    if (*text == '\0')
        return false;
    char *end = nullptr;
    long v = std::strtol(text, &end, 10);
    if (end == text || *end != '\0' || v < min || v > max)
        return false;
    out = v;
    return true;
}

bool
parseArgs(int argc, char **argv, Options &opts)
{
    for (int i = 1; i < argc; ++i) {
        const char *arg = argv[i];
        if (std::strcmp(arg, "--list") == 0) {
            opts.list = true;
        } else if (std::strncmp(arg, "--jobs=", 7) == 0) {
            long jobs = 0;
            if (!parseCount(arg + 7, 0, 4096, jobs))
                return usageError("bad --jobs value (want 0..4096; "
                                  "0 = auto-detect)",
                                  arg + 7);
            opts.jobs = static_cast<int>(jobs);
        } else if (std::strncmp(arg, "--kernels=", 10) == 0) {
            std::string rest = arg + 10;
            if (rest.empty())
                return usageError("--kernels needs at least one "
                                  "name (see --list)",
                                  nullptr);
            std::size_t pos = 0;
            while (pos < rest.size()) {
                std::size_t comma = rest.find(',', pos);
                if (comma == std::string::npos)
                    comma = rest.size();
                std::string name = rest.substr(pos, comma - pos);
                if (!name.empty()) {
                    if (findWorkload(name) == nullptr)
                        return usageError(
                            "unknown kernel (see --list)",
                            name.c_str());
                    opts.kernels.push_back(name);
                }
                pos = comma + 1;
            }
            if (opts.kernels.empty())
                return usageError("--kernels needs at least one "
                                  "name (see --list)",
                                  nullptr);
        } else if (std::strncmp(arg, "--report=", 9) == 0) {
            if (arg[9] == '\0')
                return usageError("--report needs a path", nullptr);
            opts.reportPath = arg + 9;
        } else if (std::strncmp(arg, "--check-coverage=", 17) ==
                   0) {
            if (arg[17] == '\0')
                return usageError("--check-coverage needs a path",
                                  nullptr);
            opts.checkCoveragePath = arg + 17;
        } else if (std::strncmp(arg, "--mapped-report=", 16) == 0) {
            if (arg[16] == '\0')
                return usageError("--mapped-report needs a path",
                                  nullptr);
            opts.mappedReportPath = arg + 16;
        } else if (std::strncmp(arg, "--unroll-ablation=", 18) ==
                   0) {
            if (arg[18] == '\0')
                return usageError("--unroll-ablation needs a path",
                                  nullptr);
            opts.unrollAblationPath = arg + 18;
        } else if (std::strcmp(arg, "--faults") == 0) {
            opts.faults = true;
        } else if (std::strncmp(arg, "--fault-grid=", 13) == 0) {
            std::string rest = arg + 13;
            std::size_t comma = rest.find(',');
            long dead_pes = 0, dead_links = 0;
            if (comma == std::string::npos ||
                !parseCount(rest.substr(0, comma).c_str(), 0, 99,
                            dead_pes) ||
                !parseCount(rest.substr(comma + 1).c_str(), 0, 99,
                            dead_links))
                return usageError(
                    "bad --fault-grid value (want DEADPES,"
                    "DEADLINKS, each 0..99)",
                    arg + 13);
            opts.faultDeadPes = static_cast<int>(dead_pes);
            opts.faultDeadLinks = static_cast<int>(dead_links);
        } else if (std::strncmp(arg, "--resilience-report=", 20) ==
                   0) {
            if (arg[20] == '\0')
                return usageError("--resilience-report needs a "
                                  "path",
                                  nullptr);
            opts.resilienceReportPath = arg + 20;
        } else {
            return usageError("unknown flag", arg);
        }
    }
    if (!opts.faults &&
        (opts.faultDeadPes >= 0 ||
         !opts.resilienceReportPath.empty()))
        return usageError("--fault-grid/--resilience-report "
                          "require --faults",
                          nullptr);
    return true;
}

bool
selected(const Options &opts, const std::string &name)
{
    if (opts.kernels.empty())
        return true;
    for (const std::string &k : opts.kernels)
        if (k == name || findWorkload(k)->name() == name)
            return true;
    return false;
}

/** Per-kernel compile/run coverage on the primary fabric: each
 *  kernel's name and its sweep result. */
using Coverage = std::vector<std::pair<std::string, KernelSweepResult>>;

/** The second evaluation fabric: slower mesh, more banks. */
MachineConfig
slowMeshFabric()
{
    MachineConfig alt = evalFabric();
    alt.meshHopLatency = 2;
    alt.dataNetLatency = 12;
    alt.scratchpadBanks = 8;
    return alt;
}

/** Compile the selected kernels on two fabrics through the shared
 *  program cache and run them on the cycle-accurate machine.
 *  Returns the per-kernel coverage on the primary fabric. */
Coverage
machineValidation(const Options &opts, const SweepRunner &runner)
{
    const MachineConfig big = evalFabric();
    const MachineConfig alt = slowMeshFabric();

    std::vector<KernelSweepJob> jobs;
    std::vector<std::string> labels;
    for (const Workload *w : allWorkloads()) {
        if (!selected(opts, w->name()))
            continue;
        for (const MachineConfig &config : {big, alt}) {
            jobs.push_back(KernelSweepJob{w, config});
            labels.push_back(w->name());
        }
    }

    ProgramCache cache;
    std::vector<KernelSweepResult> results =
        runner.runKernels(jobs, cache);

    std::printf("\n== Compiler pipeline: Table-5 kernels on the "
                "cycle-accurate machine (cost placer) ==\n");
    std::printf("  %-6s %-5s %10s %10s %6s %8s  %s\n", "kernel",
                "cfg", "cycles", "sched", "hops", "maxlink",
                "result");
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const KernelSweepResult &r = results[i];
        const char *cfg = (i % 2 == 0) ? "10x10" : "10x10s";
        if (!r.compiled) {
            if (i % 2 == 0) // report each kernel's rejection once.
                std::printf("  %-6s %-5s %10s %10s %6s %8s  "
                            "rejected: %s\n",
                            labels[i].c_str(), "-", "-", "-", "-",
                            "-", r.diagnostic.c_str());
            continue;
        }
        std::printf("  %-6s %-5s %10llu %10.0f %6.2f %8llu  %s\n",
                    labels[i].c_str(), cfg,
                    static_cast<unsigned long long>(r.run.cycles),
                    r.report.scheduledCycleEstimate,
                    r.congestion.meanHops,
                    static_cast<unsigned long long>(
                        r.congestion.maxLinkLoad),
                    r.validated
                        ? "bit-exact vs golden"
                        : r.validationError.c_str());
    }
    std::printf("  program cache: %llu compile(s), %llu hit(s) "
                "across %zu jobs\n",
                static_cast<unsigned long long>(cache.misses()),
                static_cast<unsigned long long>(cache.hits()),
                jobs.size());

    // The coverage record is the primary-fabric results (even job
    // indices).
    Coverage coverage;
    for (std::size_t i = 0; i < jobs.size(); i += 2)
        coverage.emplace_back(labels[i], std::move(results[i]));
    return coverage;
}

/**
 * The mapped-cycles report: every kernel compiled once per
 * evaluation fabric, run to completion and cross-validated, with
 * its machine cycles and mesh hop/congestion stats per (kernel,
 * fabric) cell.
 */
void
runMappedReport(const Options &opts, const SweepRunner &runner)
{
    const MachineConfig fabrics[] = {evalFabric(),
                                     slowMeshFabric()};
    const char *fabric_names[] = {"10x10", "10x10s"};

    std::vector<KernelSweepJob> jobs;
    for (const Workload *w : allWorkloads()) {
        if (!selected(opts, w->name()))
            continue;
        for (const MachineConfig &fabric : fabrics)
            jobs.push_back(KernelSweepJob{w, fabric});
    }

    ProgramCache cache;
    const std::vector<KernelSweepResult> results =
        runner.runKernels(jobs, cache);

    const std::string &path = opts.mappedReportPath;
    std::ofstream out;
    // Schema 3: each cell's fields are one compile's figures.
    if (!openReport(out, path, "mapped-cycles", 3))
        return;
    out << "  \"cells\": [\n";
    bool first = true;
    for (std::size_t i = 0; i < results.size(); ++i) {
        const KernelSweepResult &r = results[i];
        if (!r.compiled)
            continue;
        if (!first)
            out << ",\n";
        first = false;
        out << "    {\"kernel\": \"" << jobs[i].workload->name()
            << "\", \"fabric\": \"" << fabric_names[i % 2]
            << "\", \"cycles\": " << r.run.cycles
            << ", \"mean_hops\": " << r.congestion.meanHops
            << ", \"max_link_load\": " << r.congestion.maxLinkLoad
            << ", \"validated\": "
            << (r.validated ? "true" : "false") << "}";
    }
    out << "\n  ]\n";
    std::printf("\n");
    closeReport(out, path, "mapped-cycles");
}

/** Wall time of a compile in microseconds: the sum of its
 *  report's per-pass "timings" note. */
std::int64_t
compileMicros(const CompileReport &report)
{
    std::int64_t total = 0;
    for (const CompilerPassNote &n : report.notes) {
        if (n.pass != "timings")
            continue;
        // "analyze 12us, predicate 3us, ...": name, time, name, ...
        std::istringstream in(n.message);
        std::string pass, micros;
        while (in >> pass >> micros)
            total += std::atoll(micros.c_str());
    }
    return total;
}

void
writeReport(const std::string &path, const Coverage &coverage)
{
    std::ofstream out;
    if (!openReport(out, path, "compile-coverage"))
        return;
    out << "  \"fabric\": \"10x10\",\n  \"kernels\": [\n";
    for (std::size_t i = 0; i < coverage.size(); ++i) {
        const auto &[kernel, r] = coverage[i];
        const double scheduled = r.report.scheduledCycleEstimate;
        // mapped / scheduled: how tight the schedule-aware model
        // tracks the machine (1.0 = exact; checkCoverage holds it
        // to at most 1.25).
        double ratio = scheduled > 0.0
                           ? static_cast<double>(r.run.cycles) /
                                 scheduled
                           : 0.0;
        out << "    {\"kernel\": \"" << kernel
            << "\", \"compiled\": "
            << (r.compiled ? "true" : "false")
            << ", \"failed_pass\": \""
            << jsonEscape(r.report.failedPass)
            << "\", \"reason\": \"" << jsonEscape(r.report.reason)
            << "\", \"validated\": "
            << (r.validated ? "true" : "false")
            << ", \"cycles\": " << r.run.cycles
            << ", \"scheduled_cycles\": "
            << static_cast<std::uint64_t>(scheduled)
            << ", \"mapped_to_scheduled_ratio\": " << ratio
            << ", \"compile_us\": " << compileMicros(r.report) << "}"
            << (i + 1 < coverage.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    std::printf("\n");
    closeReport(out, path, "compile-coverage");
}

/** Minimal field scan over one JSON object body: a string value's
 *  contents without the quotes, any other value's literal text, or
 *  "" when the key is absent. */
std::string
field(const std::string &obj, const std::string &key)
{
    std::size_t at = obj.find("\"" + key + "\"");
    if (at == std::string::npos)
        return {};
    at = obj.find_first_not_of(" :", at + key.size() + 2);
    if (at == std::string::npos)
        return {};
    if (obj[at] == '"')
        return obj.substr(at + 1, obj.find('"', at + 1) - at - 1);
    return obj.substr(at, obj.find_first_of(",} \n", at) - at);
}

/** Diff (kernel, compiled, failed_pass) against the expectation
 *  file and hold every compiled kernel's estimate to 1.25x; returns
 *  false (and prints every difference) on mismatch. */
bool
checkCoverage(const std::string &path, const Coverage &coverage)
{
    std::ifstream in(path);
    if (!in) {
        std::fprintf(stderr,
                     "cannot read expected coverage '%s'\n",
                     path.c_str());
        return false;
    }
    std::stringstream buf;
    buf << in.rdbuf();
    const std::string all = buf.str();

    bool ok = true;
    int checked = 0;
    for (const auto &[kernel, r] : coverage) {
        // Find this kernel's object.
        std::size_t at =
            all.find("\"kernel\": \"" + kernel + "\"");
        if (at == std::string::npos) {
            std::fprintf(stderr,
                         "coverage check: kernel %s missing from "
                         "%s\n",
                         kernel.c_str(), path.c_str());
            ok = false;
            continue;
        }
        std::size_t end = all.find('}', at);
        std::string obj = all.substr(at, end - at + 1);
        bool want_compiled = field(obj, "compiled") == "true";
        std::string want_pass = field(obj, "failed_pass");
        if (want_compiled != r.compiled) {
            std::fprintf(stderr,
                         "coverage check: %s %s, expected to %s\n",
                         kernel.c_str(),
                         r.compiled ? "compiles" : "is rejected",
                         want_compiled ? "compile"
                                       : "be rejected");
            ok = false;
        } else if (!r.compiled &&
                   want_pass != r.report.failedPass) {
            std::fprintf(stderr,
                         "coverage check: %s rejected by '%s', "
                         "expected '%s'\n",
                         kernel.c_str(),
                         r.report.failedPass.c_str(),
                         want_pass.c_str());
            ok = false;
        }
        if (r.compiled && !r.validated) {
            std::fprintf(stderr,
                         "coverage check: %s compiled but was not "
                         "bit-exact\n",
                         kernel.c_str());
            ok = false;
        }
        // Cycle regressions fail CI too, not just status flips: a
        // compiled kernel's mapped cycles must stay within a
        // tolerance band of the expectation (the band absorbs
        // incidental drift from unrelated changes; a placement or
        // timing regression blows through it).  The run is fully
        // deterministic, so the band can be tight.
        constexpr double kCycleTolerance = 0.05;
        std::int64_t want_cycles =
            std::atoll(field(obj, "cycles").c_str());
        if (r.compiled && want_compiled && want_cycles > 0) {
            double rel =
                std::fabs(static_cast<double>(r.run.cycles) -
                          static_cast<double>(want_cycles)) /
                static_cast<double>(want_cycles);
            if (rel > kCycleTolerance) {
                std::fprintf(
                    stderr,
                    "coverage check: %s runs in %llu cycles, "
                    "expected %lld (+/-%.0f%%)\n",
                    kernel.c_str(),
                    static_cast<unsigned long long>(r.run.cycles),
                    static_cast<long long>(want_cycles),
                    100.0 * kCycleTolerance);
                ok = false;
            }
        }
        // The mapped-to-scheduled ratio is the schedule model's
        // calibration (1.0 = the route pass predicts the machine
        // exactly).  Model drift fails CI independently of raw
        // cycles: a change that slows the machine *and* mis-models
        // it equally would pass the cycle band yet silently
        // invalidate every scheduled-cycle prediction downstream
        // (validation table, unroll ablation).  The band is
        // 0.10 absolute or 10% relative, whichever is larger.
        double want_ratio = std::atof(
            field(obj, "mapped_to_scheduled_ratio").c_str());
        const double scheduled = r.report.scheduledCycleEstimate;
        // The estimate must also be honest in absolute terms: no
        // compiled kernel may run more than 1.25x its prediction.
        constexpr double kMaxRatio = 1.25;
        if (r.compiled &&
            (scheduled <= 0.0 ||
             static_cast<double>(r.run.cycles) >
                 kMaxRatio * scheduled)) {
            std::fprintf(stderr,
                         "coverage check: %s runs in %llu cycles, "
                         "more than %.2fx its scheduled estimate "
                         "%.0f\n",
                         kernel.c_str(),
                         static_cast<unsigned long long>(
                             r.run.cycles),
                         kMaxRatio, scheduled);
            ok = false;
        }
        if (r.compiled && want_compiled && want_ratio > 0.0 &&
            scheduled > 0.0) {
            double ratio =
                static_cast<double>(r.run.cycles) / scheduled;
            double drift = std::fabs(ratio - want_ratio);
            if (drift > 0.10 && drift > 0.10 * want_ratio) {
                std::fprintf(
                    stderr,
                    "coverage check: %s mapped/scheduled ratio "
                    "%.3f drifted from expected %.3f (band: 0.10 "
                    "absolute or 10%% relative)\n",
                    kernel.c_str(), ratio, want_ratio);
                ok = false;
            }
        }
        ++checked;
    }

    // Reverse direction: every kernel in the expectation must be
    // present in the current run, or dropping a registered
    // workload would pass unnoticed.
    std::size_t at = 0;
    while ((at = all.find("\"kernel\": \"", at)) !=
           std::string::npos) {
        at += 11;
        std::size_t end = all.find('"', at);
        std::string name = all.substr(at, end - at);
        bool present = false;
        for (const auto &entry : coverage)
            present = present || entry.first == name;
        if (!present) {
            std::fprintf(stderr,
                         "coverage check: expected kernel %s is "
                         "missing from this run\n",
                         name.c_str());
            ok = false;
        }
    }
    std::printf("\ncoverage check vs %s: %d kernel(s) %s\n",
                path.c_str(), checked, ok ? "OK" : "CHANGED");
    return ok;
}

// ------------------------------------------------------------------
// Unroll-factor ablation (--unroll-ablation)
// ------------------------------------------------------------------

/** The replication factor the backend actually committed to (the
 *  lower pass's capacity refinement may shrink the unroll pass's
 *  candidate), parsed from the pinned "replicated xN" note; 1 when
 *  no phase replicated. */
int
chosenUnrollFactor(const CompileReport &report)
{
    int factor = 1;
    for (const CompilerPassNote &n : report.notes) {
        std::size_t at = n.message.find("replicated x");
        if (at == std::string::npos)
            continue;
        factor = std::max(
            factor, std::atoi(n.message.c_str() + at + 12));
    }
    return factor;
}

/**
 * The unroll-factor ablation: GEMM and LDPC on the primary fabric
 * at explicit caps 1/2/4/8/16 plus the automatic cap, each run to
 * completion on the cycle-accurate machine and cross-validated.
 * The JSON (BENCH_unroll_ablation.json) records the requested cap,
 * the factor the backend actually chose, mapped cycles, the
 * schedule-aware estimate, and bit-exactness — the evidence that
 * replication is where the mapped-cycle reduction comes from and
 * that every factor stays bit-exact.
 */
int
runUnrollAblation(const Options &opts, const SweepRunner &runner)
{
    // 0 = automatic comes last so the table reads cap-then-auto.
    const int caps[] = {1, 2, 4, 8, 16, 0};

    std::vector<KernelSweepJob> jobs;
    for (const char *name : {"GEMM", "LDPC"}) {
        const Workload *w = findWorkload(name);
        if (w == nullptr || !selected(opts, w->name()))
            continue;
        for (int cap : caps) {
            CompilerOptions copts;
            copts.unrollFactor = cap;
            jobs.push_back(KernelSweepJob{w, evalFabric(), copts});
        }
    }
    if (jobs.empty()) {
        std::fprintf(stderr,
                     "paper_eval: --unroll-ablation needs GEMM "
                     "or LDPC selected\n");
        return 1;
    }

    ProgramCache cache;
    std::vector<KernelSweepResult> results =
        runner.runKernels(jobs, cache);

    std::printf("== Unroll-factor ablation: GEMM+LDPC on the "
                "10x10 fabric (cost placer) ==\n");
    std::printf("  %-6s %4s %6s %10s %10s  %s\n", "kernel", "cap",
                "chosen", "cycles", "scheduled", "result");
    bool failed = false;
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const KernelSweepResult &r = results[i];
        const int cap = jobs[i].options.unrollFactor;
        if (!r.compiled || !r.validated)
            failed = true;
        std::printf(
            "  %-6s %4s %6d %10llu %10.0f  %s\n",
            jobs[i].workload->name().c_str(),
            cap == 0 ? "auto" : std::to_string(cap).c_str(),
            chosenUnrollFactor(r.report),
            static_cast<unsigned long long>(r.run.cycles),
            r.report.scheduledCycleEstimate,
            !r.compiled ? ("rejected: " + r.diagnostic).c_str()
                        : (r.validated ? "bit-exact vs golden"
                                       : r.validationError.c_str()));
    }

    std::ofstream out;
    if (!openReport(out, opts.unrollAblationPath,
                    "unroll-ablation"))
        return 1;
    out << "  \"fabric\": \"10x10\",\n  \"placer\": \"cost\",\n"
           "  \"cells\": [\n";
    for (std::size_t i = 0; i < jobs.size(); ++i) {
        const KernelSweepResult &r = results[i];
        const int cap = jobs[i].options.unrollFactor;
        out << "    {\"kernel\": \"" << jobs[i].workload->name()
            << "\", \"requested_factor\": " << cap
            << ", \"auto\": " << (cap == 0 ? "true" : "false")
            << ", \"chosen_factor\": " << chosenUnrollFactor(r.report)
            << ", \"compiled\": " << (r.compiled ? "true" : "false")
            << ", \"validated\": "
            << (r.validated ? "true" : "false")
            << ", \"cycles\": " << r.run.cycles
            << ", \"scheduled_cycles\": "
            << static_cast<std::uint64_t>(
                   r.report.scheduledCycleEstimate)
            << "}" << (i + 1 < jobs.size() ? "," : "") << "\n";
    }
    out << "  ]\n";
    closeReport(out, opts.unrollAblationPath, "unroll-ablation");
    if (failed)
        std::fprintf(stderr,
                     "paper_eval: unroll ablation FAILED — a "
                     "(kernel, factor) cell did not stay "
                     "bit-exact\n");
    return failed ? 1 : 0;
}

// ------------------------------------------------------------------
// Fault-resilience sweep (--faults)
// ------------------------------------------------------------------

/** One (kernel, fault-grid cell) outcome of the resilience sweep. */
struct ResilienceCell
{
    std::string kernel;
    int deadPes = 0;
    int deadLinks = 0;
    bool compiled = false;
    std::string diagnostic;
    bool validated = false;
    std::string runError;    ///< structured error name, or "".
    std::string errorDetail;
    int retries = 0;
    bool recompiled = false;
    std::string jobError;
    std::uint64_t cycles = 0;
    /** Validated cycles / the kernel's zero-fault validated cycles;
     *  0 when either side is unavailable. */
    double overhead = 0.0;
};

/**
 * Sweep seeded fault plans over the selected kernels on the primary
 * 10x10 fabric.  Every cell compiles fault-obliviously first, runs
 * on the faulted machine, and on a structured run error re-places/
 * re-routes against the discovered fault set and reruns (the
 * KernelSweepJob discovery mode).  The acceptance bar: every cell
 * must either stay bit-exact vs the goldens, reject with a
 * pass-attributed "unmappable under faults" diagnostic, or end in
 * bounded time with a structured RunResult error — silent corruption
 * or a thrown job fails the sweep (nonzero exit).
 */
int
runResilienceSweep(const Options &opts, const SweepRunner &runner)
{
    const MachineConfig base = evalFabric();
    const std::uint64_t seed = 1;

    // The grid: dead-PE counts spanning 0..8, dead-link counts
    // spanning 0..4 — or the single --fault-grid cell (always with
    // the zero-fault baseline so overhead is measurable).
    std::vector<std::pair<int, int>> cells;
    cells.emplace_back(0, 0);
    if (opts.faultDeadPes >= 0) {
        if (opts.faultDeadPes != 0 || opts.faultDeadLinks != 0)
            cells.emplace_back(opts.faultDeadPes,
                               opts.faultDeadLinks);
    } else {
        for (int d : {0, 1, 2, 4, 8})
            for (int l : {0, 1, 2, 4})
                if (d != 0 || l != 0)
                    cells.emplace_back(d, l);
    }

    std::vector<KernelSweepJob> jobs;
    std::vector<ResilienceCell> table;
    for (const Workload *w : allWorkloads()) {
        if (!selected(opts, w->name()))
            continue;
        for (const auto &[dead_pes, dead_links] : cells) {
            MachineConfig config = base;
            config.faults = FaultPlan::seeded(
                config.rows, config.cols, dead_pes, dead_links,
                seed);
            KernelSweepJob job{w, config};
            job.discoverFaults = true;
            jobs.push_back(std::move(job));
            ResilienceCell cell;
            cell.kernel = w->name();
            cell.deadPes = dead_pes;
            cell.deadLinks = dead_links;
            table.push_back(std::move(cell));
        }
    }

    ProgramCache cache;
    std::vector<KernelSweepResult> results =
        runner.runKernels(jobs, cache);

    // Zero-fault baselines (cycles; cell (0,0) leads each kernel's
    // block) for the overhead ratios, and the set of kernels the
    // clean compiler accepts — only those count toward survival.
    std::size_t per_kernel = cells.size();
    for (std::size_t i = 0; i < results.size(); ++i) {
        const KernelSweepResult &r = results[i];
        ResilienceCell &cell = table[i];
        cell.compiled = r.compiled;
        cell.diagnostic = r.diagnostic;
        cell.validated = r.validated;
        cell.retries = r.retries;
        cell.recompiled = r.recompiled;
        cell.jobError = r.jobError;
        if (r.compiled) {
            cell.cycles = r.run.cycles;
            if (r.run.error != RunError::None) {
                cell.runError = runErrorName(r.run.error);
                cell.errorDetail = r.run.errorDetail;
            }
        }
        const ResilienceCell &zero =
            table[i - (i % per_kernel)];
        if (cell.validated && zero.validated && zero.cycles > 0)
            cell.overhead = static_cast<double>(cell.cycles) /
                            static_cast<double>(zero.cycles);
    }

    std::printf("== Fault resilience: seeded fault sweep on the "
                "10x10 fabric (seed %llu, cost placer) ==\n",
                static_cast<unsigned long long>(seed));
    std::printf("  %-6s %4s %5s %10s %7s %8s  %s\n", "kernel",
                "dead", "links", "cycles", "retry", "overhead",
                "result");
    bool failed = false;
    int survivable = 0, survived = 0, recompiles = 0,
        recoveries = 0;
    double overhead_log_sum = 0.0;
    int overhead_count = 0;
    for (std::size_t i = 0; i < table.size(); ++i) {
        const ResilienceCell &cell = table[i];
        const ResilienceCell &zero = table[i - (i % per_kernel)];
        const char *verdict = nullptr;
        if (!cell.jobError.empty()) {
            verdict = "JOB THREW";
            failed = true;
        } else if (!cell.compiled) {
            // A clean rejection is acceptable under faults only if
            // it is the pass-attributed unmappable diagnostic (or
            // the kernel is rejected even fault-free, e.g. MS/FFT).
            verdict = "rejected";
            if (zero.compiled &&
                cell.diagnostic.find("unmappable under faults") ==
                    std::string::npos)
                failed = true;
        } else if (cell.validated) {
            verdict = "bit-exact";
        } else if (!cell.runError.empty()) {
            verdict = "structured error";
        } else {
            verdict = "SILENT CORRUPTION";
            failed = true;
        }
        if (zero.compiled && zero.validated) {
            ++survivable;
            if (cell.validated)
                ++survived;
        }
        if (cell.recompiled) {
            ++recompiles;
            if (cell.validated)
                ++recoveries;
        }
        if (cell.overhead > 0.0 &&
            (cell.deadPes != 0 || cell.deadLinks != 0)) {
            overhead_log_sum += std::log(cell.overhead);
            ++overhead_count;
        }
        std::printf(
            "  %-6s %4d %5d %10llu %7d %8s  %s%s%s\n",
            cell.kernel.c_str(), cell.deadPes, cell.deadLinks,
            static_cast<unsigned long long>(cell.cycles),
            cell.retries,
            cell.overhead > 0.0
                ? (std::to_string(cell.overhead).substr(0, 5) + "x")
                      .c_str()
                : "-",
            verdict,
            (!cell.jobError.empty() || !cell.runError.empty() ||
             (!cell.compiled && !cell.diagnostic.empty()))
                ? ": "
                : "",
            !cell.jobError.empty()
                ? cell.jobError.c_str()
                : (!cell.runError.empty()
                       ? cell.errorDetail.c_str()
                       : (!cell.compiled ? cell.diagnostic.c_str()
                                         : "")));
    }

    KernelSweepStats stats = summarizeKernelSweep(results);
    double survival =
        survivable > 0 ? 100.0 * survived / survivable : 0.0;
    double recompile_rate =
        recompiles > 0 ? 100.0 * recoveries / recompiles : 0.0;
    double overhead_geomean =
        overhead_count > 0
            ? std::exp(overhead_log_sum / overhead_count)
            : 1.0;
    std::printf("\n  survival %d/%d (%.1f%%), %d recompile(s) "
                "(%d recovered, %.1f%%), cycle overhead geomean "
                "%.3fx, %d run error(s), %d rejected, %d job "
                "error(s)\n",
                survived, survivable, survival, recompiles,
                recoveries, recompile_rate, overhead_geomean,
                stats.runErrors, stats.rejected, stats.jobErrors);
    std::printf("  program cache: %llu compile(s), %llu hit(s) "
                "across %zu jobs\n",
                static_cast<unsigned long long>(cache.misses()),
                static_cast<unsigned long long>(cache.hits()),
                jobs.size());

    if (!opts.resilienceReportPath.empty()) {
        std::ofstream out;
        if (!openReport(out, opts.resilienceReportPath,
                        "resilience"))
            return 1;
        out << "  \"fabric\": \"10x10\",\n  \"seed\": " << seed
            << ",\n  \"survival_rate\": "
            << survival / 100.0
            << ",\n  \"recompile_success_rate\": "
            << recompile_rate / 100.0
            << ",\n  \"cycle_overhead_geomean\": "
            << overhead_geomean
            << ",\n  \"retried\": " << stats.retried
            << ",\n  \"recovered_by_recompile\": "
            << stats.recoveredByRecompile
            << ",\n  \"cells\": [\n";
        for (std::size_t i = 0; i < table.size(); ++i) {
            const ResilienceCell &cell = table[i];
            out << "    {\"kernel\": \"" << cell.kernel
                << "\", \"dead_pes\": " << cell.deadPes
                << ", \"dead_links\": " << cell.deadLinks
                << ", \"compiled\": "
                << (cell.compiled ? "true" : "false")
                << ", \"validated\": "
                << (cell.validated ? "true" : "false")
                << ", \"cycles\": " << cell.cycles
                << ", \"retries\": " << cell.retries
                << ", \"recompiled\": "
                << (cell.recompiled ? "true" : "false")
                << ", \"overhead\": " << cell.overhead
                << ", \"run_error\": \""
                << jsonEscape(cell.runError)
                << "\", \"diagnostic\": \""
                << jsonEscape(!cell.jobError.empty()
                                  ? cell.jobError
                                  : (!cell.errorDetail.empty()
                                         ? cell.errorDetail
                                         : cell.diagnostic))
                << "\"}" << (i + 1 < table.size() ? "," : "")
                << "\n";
        }
        out << "  ]\n";
        std::printf("  ");
        closeReport(out, opts.resilienceReportPath, "resilience");
    }

    if (failed)
        std::fprintf(stderr,
                     "paper_eval: fault sweep FAILED — a cell "
                     "neither validated, rejected cleanly, nor "
                     "errored with a structured RunResult\n");
    return failed ? 1 : 0;
}

} // namespace

int
main(int argc, char **argv)
{
    Options opts;
    if (!parseArgs(argc, argv, opts))
        return 1;
    if (opts.list) {
        for (const Workload *w : allWorkloads())
            std::printf("%-6s %s (%s)\n", w->name().c_str(),
                        w->fullName().c_str(),
                        w->sizeDesc().c_str());
        return 0;
    }
    if (opts.faults) {
        SweepRunner fault_runner(opts.jobs);
        return runResilienceSweep(opts, fault_runner);
    }
    if (!opts.unrollAblationPath.empty()) {
        SweepRunner ab_runner(opts.jobs);
        return runUnrollAblation(opts, ab_runner);
    }

    std::vector<WorkloadProfile> profiles;
    for (const WorkloadProfile &p : allProfiles())
        if (selected(opts, p.name))
            profiles.push_back(p);
    for (const PaperArtifact &artifact : paperArtifacts())
        std::fputs(artifact.render(profiles).c_str(), stdout);

    const SweepRunner runner(opts.jobs);
    const Coverage coverage = machineValidation(opts, runner);
    if (!opts.reportPath.empty())
        writeReport(opts.reportPath, coverage);
    if (!opts.mappedReportPath.empty())
        runMappedReport(opts, runner);
    if (!opts.checkCoveragePath.empty() &&
        !checkCoverage(opts.checkCoveragePath, coverage))
        return 1;
    return 0;
}

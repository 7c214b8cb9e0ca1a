/**
 * @file
 * End-to-end benchmark of Marionette's two user-facing paths.
 *
 *   perfbench --workload NAME --seed N --seconds S --trace 0|1
 *             [--trace-out FILE]
 *
 * Workloads (all on the 10x10 evaluation fabric, default
 * CompilerOptions, closed loop with one outstanding request):
 *
 *   serve-cold  ServeCore, no ProgramCache, no SnapshotCache: every
 *               request compiles, so the compiler (place above all)
 *               is most of each request.
 *   serve-warm  the same traffic on a default ServeCore, every cell
 *               compiled and snapshotted during set-up: a request is
 *               restore + run + validate, the simulator's sparse-
 *               activity regime plus per-request serving overhead.
 *   eval-long   SweepRunner(1)::runKernels over GEMM, VI, LDPC, HT,
 *               NW with a ProgramCache filled in set-up and no
 *               SnapshotCache: long, dense simulations, the opposite
 *               activity regime from serve-warm.
 *
 * Each request or kernel run is checked bit-exact against its
 * golden (ServeOptions::validate, KernelSweepResult::validated) and
 * against the kernel's first result in this process (same cycles,
 * same outputs).  Requests come in seeded exact-share rounds
 * (ledger.h Schedule) and a run measures whole rounds.
 *
 * --trace 0 prints the end-to-end metrics, measured untraced.
 * --trace 1 first serves the sequence untraced (the host.* and
 * serve.* metrics), then serves each request twice, back to back:
 * untraced, and replayed on this thread through the same public
 * calls in ServeCore::serveOne's / runKernels' order with one span
 * per call.  It prints the per-layer metrics.  Nothing inside the
 * library is instrumented.
 *
 * The last line of stdout is one JSON object: correct, attempted,
 * failed, metrics.  The exit code is non-zero on any failed or
 * divergent request.
 */

#include <algorithm>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "compiler/program_cache.h"
#include "ledger.h"
#include "serve/server.h"
#include "sim/sweep.h"
#include "workloads/workload.h"

using namespace marionette;
using namespace perfbench;

namespace
{

/** Set-up is repeated and its median reported, so one slow set-up
 *  does not move setup_s. */
constexpr int kSetupRepeats = 5;
/** A measured phase stops at a round boundary after this much wall
 *  time even if it has too few samples (a --trace 1 run has two
 *  phases and must end well inside three minutes). */
constexpr double kMaxMeasureSeconds = 70;

/** The evaluation fabric paper_eval and bench_serving use. */
MachineConfig
evalFabric()
{
    MachineConfig config;
    config.rows = 10;
    config.cols = 10;
    config.scratchpadBytes = 512 * 1024;
    config.instrMemBytes = 64 * 1024;
    return config;
}

enum class Path
{
    Serve,
    Sweep,
};

struct WorkloadDef
{
    std::string name;
    Path path = Path::Serve;
    std::vector<Share> shares;
    /** ServeOptions::programCache / snapshots (serve path). */
    bool programCache = true;
    bool snapshots = true;
    /** The untraced phase of --trace 1 keeps measuring past
     *  --seconds until this many samples: 100 leave ten beyond the
     *  p90.  0 for a batch, which reports no latency percentiles. */
    std::size_t minSamples = 0;
};

const std::vector<WorkloadDef> &
workloadDefs()
{
    // Shares 3:3:2:2 put the p50 rank inside the second-fastest
    // kernel's class and the p90 rank in the middle of the slowest
    // one for any whole number of rounds.
    static const std::vector<Share> serveMix = {
        {"SI", 3}, {"CRC", 3}, {"SCD", 2}, {"ADPCM", 2}};
    static const std::vector<WorkloadDef> defs = {
        {"serve-cold", Path::Serve, serveMix, false, false, 100},
        {"serve-warm", Path::Serve, serveMix, true, true, 100},
        {"eval-long", Path::Sweep,
         {{"GEMM", 1}, {"VI", 1}, {"LDPC", 1}, {"HT", 1}, {"NW", 1}},
         true, false, 0},
    };
    return defs;
}

const Workload &
kernelOf(const std::string &name)
{
    const Workload *workload = findWorkload(name);
    if (!workload) {
        std::fprintf(stderr, "perfbench: unknown kernel %s\n",
                     name.c_str());
        std::exit(2);
    }
    return *workload;
}

std::uint64_t
hashOutputs(const RunResult &run)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 0x100000001b3ull;
    };
    for (const auto &fifo : run.outputs) {
        mix(fifo.size());
        for (Word w : fifo)
            mix(static_cast<std::uint64_t>(w));
    }
    return h;
}

/**
 * Counts attempted and failed requests.  A request fails when it is
 * not served, ends with a RunError, mismatches its golden, or
 * differs (cycles or outputs) from the first result of its kernel.
 */
class Checker
{
  public:
    bool
    check(const std::string &kernel, const std::string &error,
          const RunResult &run)
    {
        ++attempted_;
        std::string why = error;
        if (why.empty() && !run.ok())
            why = std::string("run error: ") +
                  runErrorName(run.error);
        if (why.empty()) {
            const Seen seen{run.cycles, hashOutputs(run)};
            auto [it, first] = seen_.emplace(kernel, seen);
            if (!first && (it->second.cycles != seen.cycles ||
                           it->second.outputs != seen.outputs))
                why = "diverged from the kernel's first result (" +
                      std::to_string(seen.cycles) + " vs " +
                      std::to_string(it->second.cycles) + " cycles)";
        }
        if (why.empty())
            return true;
        if (++failed_ <= 10)
            std::fprintf(stderr, "perfbench: %s FAILED: %s\n",
                         kernel.c_str(), why.c_str());
        return false;
    }

    long attempted() const { return attempted_; }
    long failed() const { return failed_; }

    /** Simulated cycles of each kernel seen (first result). */
    std::map<std::string, Cycle>
    cycles() const
    {
        std::map<std::string, Cycle> out;
        for (const auto &[kernel, seen] : seen_)
            out[kernel] = seen.cycles;
        return out;
    }

  private:
    struct Seen
    {
        Cycle cycles = 0;
        std::uint64_t outputs = 0;
    };
    std::map<std::string, Seen> seen_;
    long attempted_ = 0;
    long failed_ = 0;
};

// ------------------------------------------------------------ paths

serve::ServeOptions
serveOptions(const WorkloadDef &def)
{
    serve::ServeOptions options;
    options.fabric = evalFabric();
    options.fabrics = 1;
    options.regionsPerFabric = 1;
    options.programCache = def.programCache;
    options.snapshots = def.snapshots;
    options.validate = true;
    return options;
}

/** What one untraced request reports besides its latency. */
struct Served
{
    double latency = 0;
    double queueSeconds = 0;
    double serviceSeconds = 0;
    bool warmStart = false;
};

/** The untraced workload: a ServeCore or a ProgramCache, driven one
 *  outstanding request at a time from this thread. */
class Untraced
{
  public:
    Untraced(const WorkloadDef &def, Checker &checker)
        : def_(def), checker_(checker)
    {
        if (def_.path == Path::Serve) {
            core_ = std::make_unique<serve::ServeCore>(
                serveOptions(def_));
            // One warm-up request per kernel: on serve-warm this
            // fills the ProgramCache and the SnapshotCache.
            for (const Share &share : def_.shares)
                serve(Request{share.kernel, 0});
        } else {
            for (const Share &share : def_.shares) {
                const CompileResult compiled = programs_.getOrCompile(
                    kernelOf(share.kernel), evalFabric());
                if (!compiled.ok())
                    std::fprintf(stderr,
                                 "perfbench: %s does not compile: "
                                 "%s\n",
                                 share.kernel.c_str(),
                                 compiled.report.reason.c_str());
            }
        }
    }

    Served
    serve(const Request &request)
    {
        Served out;
        if (def_.path == Path::Serve) {
            serve::ServeRequest q;
            q.tenant = "t" + std::to_string(request.tenant);
            q.workload = request.kernel;
            const double t0 = wallSeconds();
            const serve::ServeResponse response =
                core_->submit(q).get();
            out.latency = wallSeconds() - t0;
            out.queueSeconds =
                static_cast<double>(response.queueMicros) * 1e-6;
            out.serviceSeconds =
                static_cast<double>(response.serviceMicros) * 1e-6;
            out.warmStart = response.warmStart;
            std::string error =
                response.served ? "" : "not served: " + response.error;
            if (error.empty() && !response.validation.empty())
                error = "golden mismatch: " + response.validation;
            checker_.check(request.kernel, error, response.run);
            return out;
        }
        KernelSweepJob job;
        job.workload = &kernelOf(request.kernel);
        job.config = evalFabric();
        const double t0 = wallSeconds();
        const std::vector<KernelSweepResult> results =
            runner_.runKernels({job}, programs_);
        out.latency = wallSeconds() - t0;
        out.serviceSeconds = out.latency;
        const KernelSweepResult &r = results.front();
        std::string error;
        if (!r.jobError.empty())
            error = "job error: " + r.jobError;
        else if (!r.compiled)
            error = "not compiled: " + r.diagnostic;
        else if (!r.validated)
            error = "golden mismatch: " + r.validationError;
        checker_.check(request.kernel, error, r.run);
        return out;
    }

  private:
    const WorkloadDef &def_;
    Checker &checker_;
    std::unique_ptr<serve::ServeCore> core_;
    ProgramCache programs_;
    SweepRunner runner_{1};
};

/** Per-request simulated and cache counts of the traced replay. */
struct LayerCounts
{
    long requests = 0;
    double cycles = 0;
    double fires = 0;
    double peCycles = 0;
    double ffProbes = 0;
    double ffDeclines = 0;
    double ffEngagements = 0;
    double ffCyclesSkipped = 0;
    double stallOperand = 0;
    double stallCredit = 0;
    double stallMem = 0;
    double stallGate = 0;
    double packets = 0;
    double hops = 0;
    double maxLinkLoad = 0;
    double ctrlWords = 0;
    double spAccesses = 0;
    double bankConflicts = 0;
    double programHits = 0;
    double programLookups = 0;
    double snapshotHits = 0;
    double snapshotLookups = 0;
    double snapshotSavedSeconds = 0;
};

/**
 * The traced replay: ServeCore::serveOne's sequence of public calls
 * (serve workloads, one persistent lane machine) or runKernels'
 * (eval-long, a machine per job), made from this thread with one
 * span around each call.
 */
class Traced
{
  public:
    Traced(const WorkloadDef &def, Tracer &tracer, Checker &checker)
        : def_(def), tracer_(tracer), checker_(checker),
          config_(evalFabric()), cellHash_(configHash(config_))
    {
        if (def_.path == Path::Serve) {
            SpanScope build(tracer_, "build", -1);
            lane_ = std::make_unique<MarionetteMachine>(config_);
        }
        for (const Share &share : def_.shares) {
            if (def_.path == Path::Serve) {
                serve(Request{share.kernel, 0}, -1);
            } else {
                compile(kernelOf(share.kernel), -1);
            }
        }
    }

    /** One request; @p id >= 0 for measured requests.  Returns the
     *  request span's wall seconds. */
    double
    serve(const Request &request, long id)
    {
        const Workload &workload = kernelOf(request.kernel);
        const std::uint64_t hits0 = programs_.hits();
        const std::uint64_t misses0 = programs_.misses();
        const SnapshotCache::Counters snaps0 = snapshots_.counters();
        std::string error;
        RunResult run;
        std::unique_ptr<MarionetteMachine> own;
        const int span = tracer_.open("request", id);
        const CompileResult compiled = compile(workload, id);
        if (!compiled.ok()) {
            error = compiled.report.failedPass + ": " +
                    compiled.report.reason;
        } else {
            const CompiledKernel &kernel = *compiled.kernel;
            if (def_.path == Path::Sweep) {
                SpanScope build(tracer_, "build", id);
                own = std::make_unique<MarionetteMachine>(config_);
            }
            MarionetteMachine &machine = own ? *own : *lane_;
            startMachine(workload, kernel, machine, id);
            {
                SpanScope s(tracer_, "run", id);
                run = machine.run(kernel.cycleBudget);
            }
            SpanScope s(tracer_, "validate", id);
            error = kernel.validate(machine, run);
        }
        tracer_.close(span);
        const double seconds =
            tracer_.spans()[static_cast<std::size_t>(span)].seconds();
        // Counted after the span closes, so counting is not timed.
        if (id >= 0 && compiled.ok())
            count(compiled, own ? *own : *lane_, run);
        checker_.check(request.kernel, error, run);
        if (id < 0)
            return seconds;
        const SnapshotCache::Counters snaps = snapshots_.counters();
        const double hits =
            static_cast<double>(programs_.hits() - hits0);
        counts_.programHits += hits;
        counts_.programLookups +=
            hits + static_cast<double>(programs_.misses() - misses0);
        counts_.snapshotHits +=
            static_cast<double>(snaps.hits - snaps0.hits);
        counts_.snapshotLookups += static_cast<double>(
            snaps.hits - snaps0.hits + snaps.misses - snaps0.misses);
        counts_.snapshotSavedSeconds +=
            static_cast<double>(snaps.savedMicros -
                                snaps0.savedMicros) *
            1e-6;
        return seconds;
    }

    const LayerCounts &counts() const { return counts_; }

    /** Machine cycles over the route pass's scheduled estimate,
     *  worst kernel. */
    double scheduledRatioMax() const { return scheduledRatioMax_; }

  private:
    CompileResult
    compile(const Workload &workload, long id)
    {
        const std::uint64_t misses = programs_.misses();
        const int span = tracer_.open("compile", id);
        CompileResult compiled =
            def_.programCache
                ? programs_.getOrCompile(workload, config_)
                : Compiler(config_).compile(workload);
        tracer_.close(span);
        const bool compiledNow =
            !def_.programCache || programs_.misses() != misses;
        if (!compiledNow)
            return compiled;
        // The pass manager's per-pass times become child spans laid
        // end to end from the compile span's start.
        double at = tracer_.spans()[static_cast<std::size_t>(span)].start;
        for (const CompilerPassNote &note : compiled.report.notes) {
            if (note.pass != "timings")
                continue;
            for (const auto &[pass, seconds] :
                 parsePassTimings(note.message)) {
                tracer_.add("pass." + pass, at, at + seconds, span,
                            id);
                at += seconds;
            }
        }
        return compiled;
    }

    /** serveOne's restore-or-prepare step, or runKernels' prepare. */
    void
    startMachine(const Workload &workload,
                 const CompiledKernel &kernel,
                 MarionetteMachine &machine, long id)
    {
        const CompilerOptions options;
        if (def_.path == Path::Sweep) {
            SpanScope s(tracer_, "prepare", id);
            kernel.prepare(machine);
            return;
        }
        std::shared_ptr<const MachineSnapshot> snapshot;
        if (def_.snapshots)
            snapshot =
                snapshots_.lookup(workload.name(), cellHash_, options);
        if (snapshot) {
            SpanScope s(tracer_, "restore", id);
            machine.restore(*snapshot);
            return;
        }
        double prepared = 0;
        {
            SpanScope s(tracer_, "prepare", id);
            machine.resetStats();
            kernel.prepare(machine);
            prepared = wallSeconds() -
                       tracer_.spans()[static_cast<std::size_t>(s.id())]
                           .start;
        }
        if (def_.snapshots) {
            SpanScope s(tracer_, "snapshot", id);
            snapshots_.store(
                workload.name(), cellHash_, options,
                std::make_shared<const MachineSnapshot>(
                    machine.snapshot()),
                static_cast<std::uint64_t>(prepared * 1e6));
        }
    }

    void
    count(const CompileResult &compiled,
          const MarionetteMachine &machine, const RunResult &run)
    {
        LayerCounts &c = counts_;
        ++c.requests;
        c.cycles += static_cast<double>(run.cycles);
        c.fires += static_cast<double>(run.totalFires);
        c.peCycles += static_cast<double>(run.cycles) *
                      static_cast<double>(config_.numPes());
        const FastForwardStats &ff = machine.fastForwardStats();
        c.ffProbes += static_cast<double>(ff.probes);
        c.ffDeclines += static_cast<double>(ff.declines);
        c.ffEngagements += static_cast<double>(ff.engagements);
        c.ffCyclesSkipped += static_cast<double>(ff.cyclesSkipped);
        const CongestionReport congestion = machine.congestion();
        c.stallOperand += static_cast<double>(congestion.stallOperand);
        c.stallCredit += static_cast<double>(congestion.stallCredit);
        c.stallMem += static_cast<double>(congestion.stallMem);
        c.stallGate += static_cast<double>(congestion.stallGate);
        c.packets += static_cast<double>(congestion.packets);
        c.hops += static_cast<double>(congestion.hopTraversals);
        c.maxLinkLoad = std::max(
            c.maxLinkLoad, static_cast<double>(congestion.maxLinkLoad));
        // Control-plane words sent (the machine's own counter; the
        // network's words_delivered only counts Benes transfers).
        c.ctrlWords +=
            static_cast<double>(machine.stats().value("ctrl_words"));
        c.spAccesses += static_cast<double>(
            machine.scratchpad().stats().value("accesses"));
        c.bankConflicts += static_cast<double>(
            machine.scratchpad().stats().value("bank_conflicts"));
        if (compiled.report.scheduledCycleEstimate > 0)
            scheduledRatioMax_ = std::max(
                scheduledRatioMax_,
                static_cast<double>(run.cycles) /
                    compiled.report.scheduledCycleEstimate);
    }

    const WorkloadDef &def_;
    Tracer &tracer_;
    Checker &checker_;
    const MachineConfig config_;
    const std::uint64_t cellHash_;
    ProgramCache programs_;
    SnapshotCache snapshots_;
    std::unique_ptr<MarionetteMachine> lane_;
    LayerCounts counts_;
    double scheduledRatioMax_ = 0;
};

// ----------------------------------------------------- measurement

/** One measured phase: per request, its kernel and wall latency;
 *  the phase's process CPU and wall seconds. */
struct Phase
{
    std::vector<std::string> kernels;
    std::vector<double> latencies;
    double cpuSeconds = 0;
    double wallSeconds = 0;
};

/**
 * Serve whole rounds of @p schedule, closed loop, until @p seconds
 * of wall time have passed and at least @p minSamples requests were
 * made (or kMaxMeasureSeconds ran out).  @p serve returns one
 * request's wall latency.
 */
Phase
measure(Schedule &schedule, double seconds, std::size_t minSamples,
        const std::function<double(const Request &, long)> &serve)
{
    Phase phase;
    const double cpu0 = cpuSeconds();
    const double wall0 = wallSeconds();
    double elapsed = 0;
    do {
        for (const Request &request : schedule.nextRound()) {
            phase.latencies.push_back(serve(
                request, static_cast<long>(phase.latencies.size())));
            phase.kernels.push_back(request.kernel);
        }
        elapsed = wallSeconds() - wall0;
    } while ((elapsed < seconds ||
              phase.latencies.size() < minSamples) &&
             elapsed < kMaxMeasureSeconds);
    phase.cpuSeconds = cpuSeconds() - cpu0;
    phase.wallSeconds = elapsed;
    return phase;
}

/** Ordered (name, value, unit) metrics of one run. */
class Metrics
{
  public:
    void
    add(const std::string &name, double value,
        const std::string &unit)
    {
        entries_.push_back({name, std::isfinite(value) ? value : 0.0,
                            unit});
    }

    std::string
    json() const
    {
        std::ostringstream out;
        out.precision(17);
        out << "{";
        for (std::size_t i = 0; i < entries_.size(); ++i)
            out << (i ? ", " : "") << "\"" << entries_[i].name
                << "\": {\"value\": " << entries_[i].value
                << ", \"unit\": \"" << entries_[i].unit << "\"}";
        out << "}";
        return out.str();
    }

    void
    print(std::FILE *to) const
    {
        for (const Entry &e : entries_)
            std::fprintf(to, "  %-32s %14.6g %s\n", e.name.c_str(),
                         e.value, e.unit.c_str());
    }

  private:
    struct Entry
    {
        std::string name;
        double value;
        std::string unit;
    };
    std::vector<Entry> entries_;
};

/** Share of @p numerator in @p denominator; 0 for an empty base. */
double
ratio(double numerator, double denominator)
{
    return denominator > 0 ? numerator / denominator : 0;
}

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10;
    bool trace = false;
    std::string traceOut;
};

[[noreturn]] void
usage(const char *why)
{
    std::fprintf(stderr,
                 "perfbench: %s\n"
                 "usage: perfbench --workload serve-cold|serve-warm|"
                 "eval-long --seed N --seconds S --trace 0|1 "
                 "[--trace-out FILE]\n",
                 why);
    std::exit(2);
}

Args
parseArgs(int argc, char **argv)
{
    Args args;
    for (int i = 1; i < argc; ++i) {
        const std::string flag = argv[i];
        if (i + 1 >= argc)
            usage(("missing value for " + flag).c_str());
        const char *value = argv[++i];
        char *end = nullptr;
        if (flag == "--workload") {
            args.workload = value;
        } else if (flag == "--seed") {
            args.seed = std::strtoull(value, &end, 10);
            if (*value == '\0' || *value == '-' || *end != '\0')
                usage("--seed takes a non-negative integer");
        } else if (flag == "--seconds") {
            args.seconds = std::strtod(value, &end);
            if (*value == '\0' || *end != '\0' ||
                !(args.seconds > 0 && args.seconds <= 60))
                usage("--seconds takes a number in (0, 60]");
        } else if (flag == "--trace") {
            if (std::strcmp(value, "0") != 0 &&
                std::strcmp(value, "1") != 0)
                usage("--trace takes 0 or 1");
            args.trace = value[0] == '1';
        } else if (flag == "--trace-out") {
            args.traceOut = value;
        } else {
            usage(("unknown flag " + flag).c_str());
        }
    }
    if (args.workload.empty())
        usage("--workload is required");
    return args;
}

const WorkloadDef &
findDef(const std::string &name)
{
    for (const WorkloadDef &def : workloadDefs())
        if (def.name == name)
            return def;
    usage(("unknown workload " + name).c_str());
}

/**
 * Host-time figures of an untraced phase: requests per process CPU
 * second, and the nearest-rank p50 and p90 of wall latency.  A batch
 * (minSamples 0) has no latency percentiles, and a percentile with
 * fewer than ten samples beyond it is left out.
 */
void
addHostFigures(Metrics &m, const WorkloadDef &def, const Phase &phase)
{
    const std::size_t n = phase.latencies.size();
    m.add("host.requests_per_cpu_s",
          ratio(static_cast<double>(n), phase.cpuSeconds), "1/s");
    if (def.minSamples == 0)
        return;
    for (const double p : {0.5, 0.9}) {
        char name[32];
        std::snprintf(name, sizeof name, "host.latency_p%.0f_ms",
                      p * 100);
        if (percentileSupported(n, p))
            m.add(name, percentile(phase.latencies, p) * 1e3, "ms");
        else
            std::fprintf(stderr,
                         "perfbench: %s left out: %zu samples leave "
                         "%zu beyond it\n",
                         name, n, samplesBeyond(n, p));
    }
}

/**
 * End-to-end metrics, untraced, set-up repeated.  Host time other
 * than set-up is not among them: this host's speed for this code
 * shifts by up to 1.8x between states lasting minutes, far beyond
 * any bound a comparison could use (README, "Host noise").  The
 * measured phase still serves and checks every request, and its
 * host-time figures go to stderr; --trace 1 reports them as host.*.
 */
Metrics
endToEnd(const WorkloadDef &def, const Args &args, Checker &checker)
{
    std::vector<double> setups;
    std::unique_ptr<Untraced> bench;
    double mark = 0; // the first set-up is timed from process start
    for (int i = 0; i < kSetupRepeats; ++i) {
        bench.reset();
        if (i > 0)
            mark = cpuSeconds();
        bench = std::make_unique<Untraced>(def, checker);
        setups.push_back(cpuSeconds() - mark);
    }

    Schedule schedule(def.shares, args.seed);
    const Phase phase = measure(
        schedule, args.seconds, 0, [&bench](const Request &r, long) {
            return bench->serve(r).latency;
        });

    std::fprintf(stderr,
                 "perfbench %s seed %llu: %zu requests in %.2f wall-s, "
                 "%.2f CPU-s; set-ups",
                 def.name.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 phase.latencies.size(), phase.wallSeconds,
                 phase.cpuSeconds);
    for (double setup : setups)
        std::fprintf(stderr, " %.3f", setup);
    std::fprintf(stderr, " CPU-s\n");
    const auto median =
        groupPercentile(phase.kernels, phase.latencies, 0.5);
    std::vector<double> cycles;
    for (const auto &[kernel, c] : checker.cycles()) {
        std::fprintf(stderr,
                     "  %-6s %10llu simulated cycles, median %.4g "
                     "wall-ms\n",
                     kernel.c_str(), static_cast<unsigned long long>(c),
                     median.count(kernel) ? median.at(kernel) * 1e3
                                          : 0.0);
        cycles.push_back(static_cast<double>(c));
    }
    Metrics host;
    addHostFigures(host, def, phase);
    host.print(stderr);

    Metrics m;
    m.add("setup_s", percentile(setups, 0.5), "s");
    m.add("mapped_cycles_geomean", geomean(cycles), "cycles");
    m.add("peak_rss_mb", peakRssMb(), "MB");
    return m;
}

/** Per-span-name durations: measured requests, else set-up. */
std::vector<double>
spanSeconds(const Tracer &tracer, const std::string &name)
{
    std::vector<double> measured;
    std::vector<double> setup;
    for (const Span &span : tracer.spans())
        if (span.name == name)
            (span.request >= 0 ? measured : setup)
                .push_back(span.seconds());
    return measured.empty() ? setup : measured;
}

/** Stderr ledger: per span name, count, total and self time. */
void
printLedger(const Tracer &tracer)
{
    struct Row
    {
        long count = 0;
        double total = 0;
        double self = 0;
    };
    std::map<std::string, Row> rows;
    const auto &spans = tracer.spans();
    for (std::size_t i = 0; i < spans.size(); ++i) {
        if (spans[i].request < 0)
            continue;
        Row &row = rows[spans[i].name];
        ++row.count;
        row.total += spans[i].seconds();
        row.self += tracer.selfSeconds(static_cast<int>(i));
    }
    std::fprintf(stderr, "  %-16s %8s %12s %12s\n", "span", "count",
                 "total_ms", "self_ms");
    for (const auto &[name, row] : rows)
        std::fprintf(stderr, "  %-16s %8ld %12.3f %12.3f\n",
                     name.c_str(), row.count, row.total * 1e3,
                     row.self * 1e3);
}

/**
 * Per-layer metrics.  An untraced phase gives the host.* and serve.*
 * figures.  Then each request of the same sequence is served
 * untraced and replayed traced back to back, so both sides of the
 * tracing overhead see the same host state; the side that goes
 * first alternates, so neither always finds the caches warm.
 */
Metrics
perLayer(const WorkloadDef &def, const Args &args, Checker &checker)
{
    Untraced bench(def, checker);
    std::vector<double> queue;
    std::vector<double> service;
    double warm = 0;
    Schedule untracedSchedule(def.shares, args.seed);
    const Phase untraced = measure(
        untracedSchedule, args.seconds, def.minSamples,
        [&](const Request &r, long) {
            const Served s = bench.serve(r);
            queue.push_back(s.queueSeconds);
            service.push_back(s.serviceSeconds);
            warm += s.warmStart ? 1 : 0;
            return s.latency;
        });

    Tracer tracer;
    Traced replay(def, tracer, checker);
    std::vector<double> overhead;
    Schedule schedule(def.shares, args.seed);
    const Phase phase = measure(
        schedule, args.seconds, 0, [&](const Request &r, long id) {
            double traced = 0;
            if (id % 2)
                traced = replay.serve(r, id);
            const Served s = bench.serve(r);
            if (id % 2 == 0)
                traced = replay.serve(r, id);
            overhead.push_back(traced - s.serviceSeconds);
            return s.latency;
        });

    if (!args.traceOut.empty()) {
        std::ofstream out(args.traceOut);
        tracer.writeChromeTrace(out);
        if (!out)
            std::fprintf(stderr, "perfbench: cannot write %s\n",
                         args.traceOut.c_str());
    }
    std::fprintf(stderr,
                 "perfbench %s seed %llu: %zu untraced requests in "
                 "%.2f wall-s, then %zu each served untraced and "
                 "traced in %.2f wall-s\n",
                 def.name.c_str(),
                 static_cast<unsigned long long>(args.seed),
                 untraced.latencies.size(), untraced.wallSeconds,
                 phase.latencies.size(), phase.wallSeconds);
    printLedger(tracer);

    const std::vector<double> requests = spanSeconds(tracer, "request");
    const std::vector<double> compiles = spanSeconds(tracer, "compile");
    const std::vector<double> runs = spanSeconds(tracer, "run");
    const double requestTotal = sum(requests);
    const LayerCounts &c = replay.counts();
    const double n = static_cast<double>(c.requests);
    const bool serving = def.path == Path::Serve;

    Metrics m;
    addHostFigures(m, def, untraced);
    m.add("compiler.compile_ms_p50", percentile(compiles, 0.5) * 1e3,
          "ms");
    m.add("compiler.compile_share", ratio(sum(compiles), requestTotal),
          "ratio");
    const std::vector<double> compileCount =
        spanSeconds(tracer, "pass.analyze");
    for (const char *pass :
         {"analyze", "predicate", "structure", "unroll", "assign",
          "bind", "lower", "place", "route", "emit"})
        m.add(std::string("compiler.pass.") + pass + "_ms",
              ratio(sum(spanSeconds(tracer, std::string("pass.") + pass)),
                    static_cast<double>(compileCount.size())) *
                  1e3,
              "ms");
    m.add("compiler.cache_hit_ratio",
          ratio(c.programHits, c.programLookups), "ratio");
    m.add("compiler.validate_ms_p50",
          percentile(spanSeconds(tracer, "validate"), 0.5) * 1e3, "ms");
    m.add("compiler.scheduled_ratio_max", replay.scheduledRatioMax(),
          "ratio");
    m.add("arch.run_ms_p50", percentile(runs, 0.5) * 1e3, "ms");
    m.add("arch.run_share", ratio(sum(runs), requestTotal), "ratio");
    m.add("arch.sim_cycles_per_s", ratio(c.cycles, sum(runs)),
          "cycles/s");
    m.add("arch.fires_per_s", ratio(c.fires, sum(runs)), "1/s");
    for (const char *call : {"build", "prepare", "snapshot", "restore"})
        m.add(std::string("arch.") + call + "_ms_p50",
              percentile(spanSeconds(tracer, call), 0.5) * 1e3, "ms");
    m.add("arch.pe_utilization", ratio(c.fires, c.peCycles), "ratio");
    m.add("sim.ff_cycle_share", ratio(c.ffCyclesSkipped, c.cycles),
          "ratio");
    m.add("sim.ff_probes", ratio(c.ffProbes, n), "1/req");
    m.add("sim.ff_declines", ratio(c.ffDeclines, n), "1/req");
    m.add("sim.ff_engagements", ratio(c.ffEngagements, n), "1/req");
    m.add("sim.snapshot_hit_ratio",
          ratio(c.snapshotHits, c.snapshotLookups), "ratio");
    m.add("sim.snapshot_saved_ms", ratio(c.snapshotSavedSeconds, n) * 1e3,
          "ms/req");
    m.add("serve.queue_wait_ms_p50",
          serving ? percentile(queue, 0.5) * 1e3 : 0, "ms");
    m.add("serve.service_ms_p50",
          serving ? percentile(service, 0.5) * 1e3 : 0, "ms");
    m.add("serve.warm_start_ratio",
          serving ? ratio(warm, static_cast<double>(service.size())) : 0,
          "ratio");
    m.add("pe.stall_operand", ratio(c.stallOperand, n), "cycles/req");
    m.add("pe.stall_credit", ratio(c.stallCredit, n), "cycles/req");
    m.add("pe.stall_mem", ratio(c.stallMem, n), "cycles/req");
    m.add("pe.stall_gate", ratio(c.stallGate, n), "cycles/req");
    m.add("net.max_link_load", c.maxLinkLoad, "words");
    m.add("net.mean_hops", ratio(c.hops, c.packets), "hops");
    m.add("net.ctrl_words", ratio(c.ctrlWords, n), "words/req");
    m.add("mem.scratchpad_accesses", ratio(c.spAccesses, n), "1/req");
    m.add("mem.bank_conflicts", ratio(c.bankConflicts, n), "1/req");
    m.add("trace.requests", n, "count");
    m.add("trace.overhead_ms",
          ratio(sum(overhead), static_cast<double>(overhead.size())) *
              1e3,
          "ms/req");
    return m;
}

} // namespace

int
main(int argc, char **argv)
{
    const Args args = parseArgs(argc, argv);
    const WorkloadDef &def = findDef(args.workload);

    Checker checker;
    const Metrics metrics = args.trace ? perLayer(def, args, checker)
                                       : endToEnd(def, args, checker);
    metrics.print(stderr);

    const bool correct = checker.failed() == 0;
    std::printf("{\"correct\": %s, \"attempted\": %ld, \"failed\": %ld, "
                "\"metrics\": %s}\n",
                correct ? "true" : "false", checker.attempted(),
                checker.failed(), metrics.json().c_str());
    std::fflush(stdout);
    return correct ? 0 : 1;
}

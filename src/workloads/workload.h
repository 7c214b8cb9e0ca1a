/**
 * @file
 * Benchmark workloads (paper Table 5 / Sec. 6.2).
 *
 * Every workload provides (a) its CDFG — the graph the paper's
 * modified-Clang flow would extract from the annotated C source —
 * and (b) a *golden* C++ implementation instrumented to record the
 * dynamic basic-block trace (loop rounds, iterations, branch
 * directions).  The trace-driven performance models replay those
 * traces under each architecture's execution model; the functional
 * machine runs a subset end to end.
 *
 * All data is 32-bit, with the exact sizes of Table 5; inputs are
 * generated with the deterministic RNG so every run is reproducible.
 */

#ifndef MARIONETTE_WORKLOADS_WORKLOAD_H
#define MARIONETTE_WORKLOADS_WORKLOAD_H

#include <map>
#include <memory>
#include <set>
#include <string>
#include <vector>

#include "ir/analysis.h"
#include "ir/cdfg.h"
#include "ir/loop_info.h"
#include "ir/trace.h"

namespace marionette
{

/**
 * Trace hooks the instrumented golden implementations call.
 * round()/iteration() keep exact loop statistics (the analytic
 * models need rounds and trip counts, not just block counts);
 * block() records ordinary body-block executions including branch
 * directions.
 */
class KernelRecorder
{
  public:
    /** A loop header begins a new round (entry from outside). */
    void
    round(BlockId header)
    {
        ++rounds_[header];
        trace_.record(header);
    }

    /** One iteration of the loop owning @p header. */
    void
    iteration(BlockId header)
    {
        ++iterations_[header];
    }

    /** One execution of a non-header block. */
    void block(BlockId b) { trace_.record(b); }

    const BlockTrace &trace() const { return trace_; }

    std::uint64_t
    rounds(BlockId header) const
    {
        auto it = rounds_.find(header);
        return it == rounds_.end() ? 0 : it->second;
    }

    std::uint64_t
    iterations(BlockId header) const
    {
        auto it = iterations_.find(header);
        return it == iterations_.end() ? 0 : it->second;
    }

    const std::map<BlockId, std::uint64_t> &allRounds() const
    { return rounds_; }
    const std::map<BlockId, std::uint64_t> &allIterations() const
    { return iterations_; }

  private:
    BlockTrace trace_;
    std::map<BlockId, std::uint64_t> rounds_;
    std::map<BlockId, std::uint64_t> iterations_;
};

/** Everything the models need to know about one benchmark run. */
struct WorkloadProfile
{
    std::string name;
    std::string sizeDesc;
    Cdfg cdfg;
    LoopInfo loops;
    BlockTrace trace;
    std::map<BlockId, std::uint64_t> loopRounds;
    std::map<BlockId, std::uint64_t> loopIterations;
    ControlFlowProfile controlFlow;
    /** Paper grouping: the 10 intensive vs. CO/SI/GP. */
    bool intensive = false;

    std::uint64_t
    roundsOf(BlockId header) const
    {
        auto it = loopRounds.find(header);
        return it == loopRounds.end() ? 0 : it->second;
    }

    std::uint64_t
    iterationsOf(BlockId header) const
    {
        auto it = loopIterations.find(header);
        return it == loopIterations.end() ? 0 : it->second;
    }
};

/** Constant counted-loop parameters of one loop header, part of a
 *  workload's machine-run data (trip counts are input data: the
 *  paper's configuration generator bakes them into the loop
 *  operators). */
struct MachineLoopBound
{
    Word start = 0;
    Word bound = 0;
    Word step = 1;
};

/** A golden final-memory region the machine run must reproduce. */
struct MemoryRegionCheck
{
    std::string label;
    Word base = 0;
    std::vector<Word> expect;
};

/**
 * Everything the CDFG->Program compiler needs beyond the graph to
 * run a workload on the cycle-accurate machine and cross-validate
 * it: concrete input data, address-space layout, loop trip counts,
 * and the golden observation streams.
 *
 * `expectedOutputs[k]` is the *dynamic value trace* of observation
 * port `observePorts[k]`: the sequence of values that port takes
 * over the golden implementation's dynamic executions of its block.
 * This is compilation-independent — any correct lowering that
 * preserves iteration order must stream exactly these words into
 * output FIFO k.
 */
struct WorkloadMachineSpec
{
    /** False (the default) when the workload has no machine-run
     *  data; the compiler reports this instead of guessing. */
    bool available = false;
    /** Counted-loop parameters by loop-header *block name*. */
    std::map<std::string, MachineLoopBound> loopBounds;
    /** Static iteration cap per while-form loop header: the
     *  guarded-exit lowering sizes the loop's slot range with the
     *  cap and masks iterations past the dynamic exit. */
    std::map<std::string, Word> whileBounds;
    /** Per-loop-header round resets: named loop-carried state
     *  re-seeded to a constant at every entry of that loop from
     *  outside (the zero-initialized locals of the original C
     *  source, e.g. a min-tracker's +inf). */
    std::map<std::string, std::map<std::string, Word>> roundResets;
    /** Body port name each loop header's induction stream drives,
     *  by header block name (e.g. "i_loop" -> "i"). */
    std::map<std::string, std::string> inductionPorts;
    /** Scratchpad base address per named Load/Store node (the
     *  array the access targets); unnamed accesses use base 0. */
    std::map<std::string, Word> arrayBases;
    /** Immediate bindings for scalar live-ins, and seeds for
     *  loop-carried values the init block does not define. */
    std::map<std::string, Word> scalars;
    /** Initial scratchpad contents, loaded at address 0. */
    std::vector<Word> memoryImage;
    /** Loop headers the workload author asserts are stripe-safe:
     *  iterations of these counted loops touch disjoint data and
     *  may be partitioned across PE replicas.  The unroll pass
     *  only considers annotated headers, and still re-proves
     *  legality (no memory recurrence, no genuine cross-iteration
     *  carried value) before replicating. */
    std::set<std::string> parallelLoops;
    /** DFG output ports to stream into output FIFOs, in FIFO
     *  order.  Each name must resolve in exactly one phase. */
    std::vector<std::string> observePorts;
    /** Golden value trace per observed port (see above). */
    std::vector<std::vector<Word>> expectedOutputs;
    /** Golden final-memory regions. */
    std::vector<MemoryRegionCheck> expectedMemory;
};

/** Base class of the 13 benchmarks. */
class Workload
{
  public:
    virtual ~Workload() = default;

    /** Paper abbreviation (MS, FFT, VI, ...). */
    virtual std::string name() const = 0;

    /** Full name. */
    virtual std::string fullName() const = 0;

    /** Table 5 data-size string. */
    virtual std::string sizeDesc() const = 0;

    /** Build the kernel's CDFG. */
    virtual Cdfg buildCdfg() const = 0;

    /** Run the golden implementation, recording the trace.
     *  @return a checksum of the computed outputs (regression
     *  anchor for the golden implementations themselves). */
    virtual std::uint64_t runGolden(KernelRecorder &rec) const = 0;

    /** Paper grouping (Sec. 6.2). */
    virtual bool intensiveControlFlow() const { return true; }

    /**
     * Machine-run data for the CDFG->Program compiler (inputs,
     * layout, trip counts, golden streams).  The default is
     * "unavailable": the compiler rejects the workload with a
     * diagnostic rather than fabricating inputs.
     */
    virtual WorkloadMachineSpec machineSpec() const { return {}; }

    /** Assemble the full profile (CDFG + analysis + trace). */
    WorkloadProfile profile() const;
};

/** The 13 workloads in the paper's plot order:
 *  MS FFT VI NW HT CRC ADPCM SCD LDPC GEMM CO SI GP. */
const std::vector<const Workload *> &allWorkloads();

/** Lookup by abbreviation or full name; nullptr when unknown.
 *  O(1): backed by a name-indexed map over the registry. */
const Workload *findWorkload(const std::string &name);

/** The 13 abbreviations in plot order (CLI listings). */
std::vector<std::string> workloadNames();

} // namespace marionette

#endif // MARIONETTE_WORKLOADS_WORKLOAD_H

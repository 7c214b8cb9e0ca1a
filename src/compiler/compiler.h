/**
 * @file
 * The unified CDFG->Program compiler driver (paper Sec. 4.4's
 * configuration-generation flow, grown into a pass pipeline).
 *
 * Takes one Table-5 workload — its CDFG, loop structure and
 * machine-run data (WorkloadMachineSpec) — plus a MachineConfig,
 * and produces a validated, loadable Program together with
 * everything a harness needs to run and cross-validate it:
 * scratchpad image, boot-time channel seeds, the golden output
 * streams and final-memory regions, and the route pass's scheduled
 * cycle estimate.
 *
 * Pass pipeline (each pass appends to the CompileReport; the first
 * failing pass aborts with a diagnostic instead of asserting):
 *
 *   1. analyze     — CDFG validation + loop-nest analysis.
 *   2. predicate   — branch diamonds flattened into selects
 *                    (predication.h, iterated to a fixpoint).
 *   3. structure   — loop-tree shape checks: serial top-level
 *                    phases, one sub-loop per body, counted-loop
 *                    headers, no unpredicated branches.
 *   4. unroll      — stripe-safe counted phases get a candidate
 *                    replication factor (unroll.cc).
 *   5. bind        — workload machine data resolved: trip counts,
 *                    array bases, scalar live-ins, seeds.
 *   6. lower       — every phase's loop nest is *flattened* into a
 *                    single counted stream; loop-carried values
 *                    become channel recurrences with select-gated
 *                    round entry/exit; outer-level stores become
 *                    last-wins stores; serial phases chain through
 *                    loop-exit control emissions.
 *   7. place       — the backend's placement: memory-ordering
 *                    fences fuse into their loads, PE capacity is
 *                    checked, then every generator and live DFG
 *                    node gets a PE, cost-driven over the mesh
 *                    distance model with recurrence cycles
 *                    clustered.
 *   8. route       — data edges materialized as dimension-ordered
 *                    mesh paths with machine-exact latencies;
 *                    derives recurrence II, pipeline fill and the
 *                    serial-phase drain bounds.
 *   9. emit        — ProgramBuilder binary construction from the
 *                    placed-and-routed mapping + capacity checks
 *                    (instruction memory, scratchpad).
 *
 * The driver never calls MARIONETTE_FATAL for an unsupported
 * kernel: unsupported means a clean CompileReport explaining which
 * pass rejected it and why.
 */

#ifndef MARIONETTE_COMPILER_COMPILER_H
#define MARIONETTE_COMPILER_COMPILER_H

#include <compare>
#include <memory>
#include <string>
#include <utility>
#include <vector>

#include "isa/instruction.h"
#include "sim/config.h"
#include "workloads/workload.h"

namespace marionette
{

class MarionetteMachine;
class Scratchpad;
struct RunResult;

/** One per-pass line of the compile report. */
struct CompilerPassNote
{
    std::string pass;
    std::string message;
};

/** Pass-by-pass account of one compilation. */
struct CompileReport
{
    std::vector<CompilerPassNote> notes;
    /** Empty on success; otherwise the pass that rejected. */
    std::string failedPass;
    /** Empty on success; otherwise the reason. */
    std::string reason;
    /** Schedule-aware model cycles: derived from the placed-and-
     *  routed program's own trip counts, IIs and predicted link
     *  loads (0 until the route pass).  It tracks what the backend
     *  actually scheduled, so it lands within 1.25x of the machine
     *  on the 10x10 evaluation fabric (model/schedule_model.h). */
    double scheduledCycleEstimate = 0.0;

    bool ok() const { return failedPass.empty(); }
    void note(const std::string &pass, const std::string &message);
    void fail(const std::string &pass, const std::string &reason);
    std::string toString() const;
};

/** A channel word deposited before run() (recurrence seeds). */
struct BootInjection
{
    PeId pe = invalidPe;
    int channel = 0;
    Word value = 0;
};

/** A compiled, runnable, self-validating kernel. */
struct CompiledKernel
{
    std::string workload;
    Program program;
    std::vector<BootInjection> boots;
    /** Initial scratchpad contents, loaded at memoryImageBase. */
    std::vector<Word> memoryImage;
    /** Scratchpad address the image loads at and every Load/Store
     *  base is shifted by (CompilerOptions::memoryBase). */
    Word memoryImageBase = 0;
    /** Golden output-FIFO streams, index-aligned with the
     *  program's output FIFOs. */
    std::vector<std::vector<Word>> expectedOutputs;
    /** Golden final-memory regions. */
    std::vector<MemoryRegionCheck> memoryChecks;
    /** Generous run() cycle limit (the machine quiesces early). */
    Cycle cycleBudget = 0;
    CompileReport report;

    /** Static scratchpad footprint [base, top): the image plus
     *  every golden memory region. */
    std::pair<Word, Word> memoryFootprint() const;

    /** Zero the footprint, then load the image. */
    void loadMemory(Scratchpad &scratchpad) const;

    /** load() the program, loadMemory(), seed channels. */
    void prepare(MarionetteMachine &machine) const;

    /**
     * Bit-exact cross-validation of a finished run against the
     * golden streams and memory regions.  Returns the empty string
     * on success, else a description of the first mismatch.
     */
    std::string validate(const MarionetteMachine &machine,
                         const RunResult &run) const;
};

/** Outcome of Compiler::compile. */
struct CompileResult
{
    /** Null when compilation failed; see report. */
    std::shared_ptr<const CompiledKernel> kernel;
    CompileReport report;

    bool ok() const { return kernel != nullptr; }
};

/** Compile-time options (policy, not architecture: a machine runs
 *  any correctly-placed program regardless of these). */
struct CompilerOptions
{
    /** Spatial unroll factor cap for stripe-safe inner loops:
     *  0 = automatic (largest legal factor that fits the fabric),
     *  1 = replication off, N = replicate up to N ways. */
    int unrollFactor = 0;
    /** Scratchpad window base (words): every Load/Store base, the
     *  memory image and the golden memory checks are shifted by
     *  this offset, relocating the kernel's whole data footprint.
     *  Lets co-tenant kernels on one fabric own disjoint
     *  scratchpad windows (serve/region.h). */
    Word memoryBase = 0;
    /** Scratchpad window size (words) available from memoryBase;
     *  0 = everything up to the scratchpad top.  The emit pass
     *  rejects kernels whose static footprint exceeds the window —
     *  without the cap a co-tenant kernel could silently spill
     *  into a neighbour's window. */
    Word memoryWords = 0;

    /** Every field changes the compiled program, so every field is
     *  part of a compiled cell's identity (CompiledCellKey). */
    auto operator<=>(const CompilerOptions &) const = default;
};

/** The pass-based compiler driver. */
class Compiler
{
  public:
    explicit Compiler(const MachineConfig &config);
    Compiler(const MachineConfig &config,
             const CompilerOptions &options);

    const MachineConfig &config() const { return config_; }
    const CompilerOptions &options() const { return options_; }

    /** Compile @p workload for this compiler's machine. */
    CompileResult compile(const Workload &workload) const;

    /** Convenience: compile by registry name (abbreviation or full
     *  name); fails with a diagnostic for unknown names. */
    CompileResult compile(const std::string &workload_name) const;

  private:
    MachineConfig config_;
    CompilerOptions options_;
};

/** Names of the workloads @p config can compile (runs the full
 *  pipeline per workload; intended for listings and tests). */
std::vector<std::string> supportedWorkloads(
    const MachineConfig &config);

} // namespace marionette

#endif // MARIONETTE_COMPILER_COMPILER_H

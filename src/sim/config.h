/**
 * @file
 * Hardware parameterization shared by the functional machine, the
 * performance models and the area/delay models.
 *
 * Mirrors the paper's "parameterizable design" (Section 5): PE array
 * size, FU mix, port widths, memory sizes, network latencies, and the
 * relative timing assumptions of Section 2.3 (configure = 1 cycle,
 * execute = 2 cycles, control network = 1 cycle, data mesh = 6 cycles
 * corner-to-corner on a 4x4 array).
 */

#ifndef MARIONETTE_SIM_CONFIG_H
#define MARIONETTE_SIM_CONFIG_H

#include <string>

#include "sim/fault.h"
#include "sim/types.h"

namespace marionette
{

/**
 * Feature toggles matching the paper's ablation methodology
 * (Section 6.1): each innovation can be enabled independently so the
 * benches can measure its isolated contribution.
 */
struct Features
{
    /** Proactive PE Configuration (Control Flow Sender, Sec. 4.2). */
    bool proactiveConfig = true;
    /** Dedicated peer-to-peer CS-Benes control network (Sec. 4.1). */
    bool controlNetwork = true;
    /** Agile PE Assignment scheduling (Sec. 4.3). */
    bool agileAssignment = true;
};

/** Static hardware parameters of a Marionette instance. */
struct MachineConfig
{
    /** PEs per row of the array. */
    int rows = 4;
    /** PEs per column of the array. */
    int cols = 4;

    /** Cycles to decode+apply one configuration (paper Sec. 2.3). */
    Cycles configLatency = 1;
    /** Cycles for one FU execution (paper Sec. 2.3). */
    Cycles executeLatency = 2;

    /**
     * Sizes run()'s quiescence grace window, with the execute and
     * configure latencies: the silent cycles a run waits before it
     * counts as finished.  The window sets the idle statistics and
     * the cycle count of a watchdog-ended run.  The mesh does not
     * read it: it charges meshHopLatency per hop.
     */
    Cycles dataNetLatency = 6;
    /** Per-hop latency on the data mesh. */
    Cycles meshHopLatency = 1;

    /** Depth of each control FIFO (entries). */
    int controlFifoDepth = 16;
    /** Number of control FIFOs. */
    int controlFifoCount = 16;

    /** Data scratchpad capacity (bytes); paper Table 4 uses 16 KiB. */
    int scratchpadBytes = 16 * 1024;
    /** Number of scratchpad banks. */
    int scratchpadBanks = 4;
    /** Instruction scratchpad capacity (bytes); Table 4 uses 2 KiB. */
    int instrMemBytes = 2 * 1024;

    /** Instruction-buffer entries per PE control-flow part. */
    int instrBufferEntries = 32;

    /** Local register-file entries per PE data-flow part. */
    int localRegs = 4;

    /** PEs that carry the nonlinear-fitting FU (Table 4 has 4). */
    int nonlinearPes = 4;

    /** Fabric clock (Hz); prototype synthesized at 500 MHz. */
    double clockHz = 500e6;

    /** Feature toggles for ablation studies. */
    Features features;

    /**
     * Hardware faults this instance suffers (sim/fault.h): dead
     * PEs, dead mesh links, scheduled transient upsets.  Part of
     * the architectural identity — the compiler places and routes
     * around the same fault set the machine enforces, so the plan
     * is covered by configHash().  Empty by default.
     */
    FaultPlan faults;

    /**
     * Watchdog window (cycles): a run that makes no forward
     * progress for this long while words are still claimed or in
     * flight is declared deadlocked and terminated with a
     * structured RunResult error instead of spinning to the cycle
     * limit.  A simulator knob like eventDrivenSim — it cannot
     * change what a healthy run computes (any legal stall resolves
     * within a few network latencies), so it is excluded from
     * configHash().  0 disables the monitor.
     */
    Cycles watchdogCycles = 8192;

    /**
     * Simulator implementation toggle (not an architecture
     * feature): when true, run() uses the activity-driven hot path
     * — only PEs with work are ticked, with skipped-cycle
     * statistics backfilled exactly.  When false, run() ticks every
     * PE every cycle (the reference loop).  Both paths produce
     * bit-identical RunResults and stat dumps; the flag exists so
     * the equivalence can be asserted in tests.
     */
    bool eventDrivenSim = true;

    /** Total number of PEs. */
    int numPes() const { return rows * cols; }

    /** Validate invariants; calls fatal() on user error. */
    void validate() const;

    /** One-line human-readable summary. */
    std::string summary() const;
};

/**
 * Stable hash over every *architectural* field of a configuration —
 * the compiled-program cache key (compiler/program_cache.h).  The
 * simulator-implementation toggle (eventDrivenSim) is deliberately
 * excluded: it cannot change what the compiler emits, so both run
 * paths of a config share one cache entry.
 */
std::uint64_t configHash(const MachineConfig &config);

/**
 * The 10x10 evaluation fabric the Table-5 kernels compile for: the
 * prototype's timing with a 512 KiB data scratchpad and 64 KiB of
 * instruction memory (LDPC alone needs 72 PEs).
 */
inline MachineConfig
evalFabric()
{
    MachineConfig config;
    config.rows = 10;
    config.cols = 10;
    config.scratchpadBytes = 512 * 1024;
    config.instrMemBytes = 64 * 1024;
    return config;
}

} // namespace marionette

#endif // MARIONETTE_SIM_CONFIG_H

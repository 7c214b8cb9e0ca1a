/**
 * @file
 * The complete Marionette machine (paper Fig. 4d).
 *
 * Data flow plane: PE data-flow parts, the data mesh, and the banked
 * data scratchpad.  Control flow plane: PE control-flow parts, the
 * CS-Benes control network, the Control FIFOs and the Controller.
 *
 * The machine is the cycle-accurate functional simulator of Sec. 5:
 * it loads the compiler's binary configuration, boots the PEs
 * through the controller, advances cycle by cycle, and reports both
 * functional results (output FIFOs, scratchpad contents) and
 * performance statistics.
 *
 * run() has two implementations selected by
 * MachineConfig::eventDrivenSim and guaranteed bit-identical:
 *
 *  - the *reference* loop ticks every PE every cycle (the original
 *    simulator), and
 *  - the *activity-driven* hot path keeps an active worklist, a
 *    bitset walked in PE-id order.  A PE whose firing attempt finds
 *    a gate closed — in a tick without progress, or as the
 *    prediction a firing makes for its next attempt — leaves it
 *    after that tick, unless it must retry a scratchpad port, and
 *    sleeps until exactly the event the gate names (Pe::wait()): a
 *    word on the one empty operand channel, a pop by the consumer
 *    whose channel or FIFO is full, a push into the FIFO a loop
 *    waits on, or — from a calendar queue of timed wakes — the
 *    cycle an FU op retires, a loop's II elapses or a configuration
 *    applies.  Control words and transient upsets wake their PE
 *    unconditionally.  The per-cycle statistics the
 *    skipped ticks would have recorded are replayed on wake-up (see
 *    Pe::backfillIdle), so stat dumps match the reference loop to
 *    the byte.
 *
 * In-flight control words and FIFO pushes live in calendar queues
 * (sim/event_queue.h) bucketed by arrival cycle, as does the data
 * mesh's traffic, making delivery O(arrivals) per cycle.
 *
 * Machine snapshots are plain state copies: snapshot() deep-copies
 * every mutable field of a loaded machine through the components'
 * saveState() and restore() brings an identically-configured
 * machine back to that point through restoreState(), so the
 * serving core can warm-start repeated runs from a compiled+filled
 * checkpoint instead of re-preparing from scratch.  Per input
 * channel and control FIFO a snapshot keeps only the buffered
 * words, oldest first, as a plain vector (empty: no allocation);
 * per (PE, channel) it keeps the claimed-but-undelivered credit
 * count in one flat array.
 */

#ifndef MARIONETTE_ARCH_MACHINE_H
#define MARIONETTE_ARCH_MACHINE_H

#include <map>
#include <memory>
#include <vector>

#include "isa/instruction.h"
#include "mem/control_fifo.h"
#include "mem/scratchpad.h"
#include "net/control_network.h"
#include "net/mesh.h"
#include "pe/pe.h"
#include "sim/config.h"
#include "sim/event_queue.h"
#include "sim/stats.h"

namespace marionette
{

/**
 * Aggregate traffic/stall profile: mesh congestion (per-link loads
 * folded into max/mean) plus the array-wide stall breakdown.  Like
 * every machine statistic these are cumulative over the machine's
 * lifetime; the sweeps run one kernel per machine, so per-kernel
 * profiles fall out.  paper_eval reports these next to the
 * mapped-cycle numbers so a placement change's effect on the
 * network is visible, not just its cycle count.
 */
struct CongestionReport
{
    /** Words injected into the data mesh. */
    std::uint64_t packets = 0;
    /** Total router-hop traversals of those words. */
    std::uint64_t hopTraversals = 0;
    /** Busiest directed link's traversal count. */
    std::uint64_t maxLinkLoad = 0;
    /** Average hops per packet (0 when no traffic). */
    double meanHops = 0.0;
    /** Array-wide stall-cycle breakdown (summed over PEs). */
    std::uint64_t stallOperand = 0;
    std::uint64_t stallCredit = 0;
    std::uint64_t stallMem = 0;
    std::uint64_t stallGate = 0;
};

/** Always-zero fast-forward counters; only the benchmark reads them. */
struct FastForwardStats
{
    std::uint64_t probes = 0;
    std::uint64_t declines = 0;
    std::uint64_t engagements = 0;
    std::uint64_t cyclesSkipped = 0;
};

/**
 * Structured failure classification of a run.  The machine never
 * asserts or spins on a runtime fault: every abnormal end is one of
 * these kinds, with the stall site attached to the RunResult, so
 * callers (sweeps, retry loops, serving layers) can react instead
 * of dying with the process.
 */
enum class RunError : std::uint8_t
{
    /** The run is healthy (it may still be mid-flight if the cycle
     *  limit cut it short — check RunResult::finished). */
    None,
    /** The loaded program targets a PE the fault plan marks dead. */
    DeadPe,
    /** The watchdog found the fabric wedged: words lost on dead
     *  links, a loop generator stranded mid-round at quiescence, or
     *  no forward progress with work still claimed or in flight. */
    Deadlock,
    /** max_cycles elapsed while the fabric was still progressing
     *  (livelock or an undersized budget). */
    CycleLimit,
    /** The program emitted an out-of-range destination (bad PE,
     *  output port, or control FIFO). */
    BadProgram,
    /** The fabric violated its own credit protocol (a simulator
     *  bug surfaced as data instead of an abort). */
    Protocol,
};

/** Stable lowercase name of a RunError ("deadlock", ...). */
const char *runErrorName(RunError error);

/** Outcome of one kernel execution. */
struct RunResult
{
    /** Total cycles until quiescence (or the cycle limit). */
    Cycle cycles = 0;
    /** True when the machine quiesced before the limit. */
    bool finished = false;
    /** Per-output-FIFO collected words. */
    std::vector<std::vector<Word>> outputs;
    /** Total FU firings across the array. */
    std::uint64_t totalFires = 0;
    /** Average PE utilization: fires / (PEs * cycles). */
    double peUtilization = 0.0;
    /** PE ticks this run executed: the simulator's host work, not a
     *  simulated quantity (the reference loop ticks every live PE
     *  every cycle; the activity-driven path skips sleepers). */
    std::uint64_t peTicks = 0;

    /** Structured failure kind; RunError::None on a healthy run. */
    RunError error = RunError::None;
    /** One-line description of the failure (empty when healthy). */
    std::string errorDetail;
    /** Last cycle that made forward progress before the failure. */
    Cycle stalledCycle = 0;
    /** Offending PE (dead target, stranded generator); invalidPe
     *  when the failure has no single PE. */
    PeId faultPe = invalidPe;
    /** Offending mesh endpoints of a lost word (src, dst);
     *  invalidPe when no word was lost. */
    PeId faultLinkSrc = invalidPe;
    PeId faultLinkDst = invalidPe;

    /** Healthy and ran to quiescence. */
    bool ok() const { return finished && error == RunError::None; }
};

/** The Marionette spatial-architecture instance. */
class MarionetteMachine : public FabricIface
{
  public:
    explicit MarionetteMachine(const MachineConfig &config);

    const MachineConfig &config() const { return config_; }

    /** Load a compiled kernel; resets all runtime state. */
    void load(const Program &program);

    /**
     * Run until the fabric quiesces or @p max_cycles elapse.
     * Quiescence = no PE progress, no words in flight on either
     * network, and no pending FIFO work, sustained for a grace
     * window longer than any in-fabric latency.
     */
    RunResult run(Cycle max_cycles = 2'000'000);

    /** Data scratchpad (workload setup / verification). */
    Scratchpad &scratchpad() { return *scratchpad_; }
    const Scratchpad &scratchpad() const { return *scratchpad_; }

    /**
     * Deposit a boot-time constant into a PE input channel (e.g.
     * the seed of an accumulation recurrence).  Call after load(),
     * before run().
     */
    void injectData(PeId pe, int channel, Word value);

    /** Control FIFO access (tests). */
    ControlFifo &controlFifo(int i);

    /** Per-PE statistics. */
    const StatGroup &peStats(PeId pe) const;

    /** Read-only PE access (tests, stuck-state diagnostics). */
    const Pe &pe(PeId id) const;

    /** Machine-level statistics. */
    const StatGroup &stats() const { return stats_; }

    /**
     * Render every statistic in the machine — per-PE groups, the
     * networks, the scratchpad, the control FIFOs and the machine
     * itself — as sorted "prefix.name value" lines (the simulator
     * report a performance study greps).
     */
    std::string renderAllStats() const;

    /**
     * Zero every statistic in the machine — per-PE groups, the
     * networks, the scratchpad, the control FIFOs and the machine
     * itself.  Persistent machines (serve/server.h) call this at
     * request boundaries so a request's stat dump — and the stats a
     * post-prepare snapshot captures — never leak a previous
     * tenant's counters.  Runtime state is untouched.
     */
    void resetStats();

    /** The control network instance (area/ablation queries). */
    const ControlNetwork &controlNetwork() const { return ctrlNet_; }

    /** The data mesh instance (geometry/congestion queries). */
    const DataMesh &mesh() const { return mesh_; }

    /** Mesh congestion + stall profile (cumulative; see
     *  CongestionReport). */
    CongestionReport congestion() const;

    // ---- FabricIface (called by PEs during tick) ----
    bool dataCredit(PeId dst, int channel) override;
    void claimDataCredit(PeId dst, int channel) override;
    bool memPortAvailable(Word addr) override;
    Word memRead(Word addr) override;
    void memWrite(Word addr, Word value) override;
    bool fifoHasData(int fifo) override;
    Word fifoPop(int fifo) override;
    bool fifoHasSpace(int fifo) override;
    void claimFifoSlot(int fifo) override;

  private:
    struct PendingCtrl
    {
        PeId dst = invalidPe;
        InstrAddr addr = invalidInstr;
    };

    struct PendingPush
    {
        int fifo = -1;
        Word value = 0;
    };

  public:
    /**
     * Deep copy of every mutable field of a loaded machine.  Taken
     * with snapshot(), applied with restore() on a machine built
     * from the *same architectural configuration* (guarded by
     * configHash).  A restored machine is indistinguishable from
     * the one the snapshot was taken on: run() produces the same
     * RunResult and the same stat dump to the byte.
     */
    struct Snapshot
    {
        /** configHash() of the machine the capture was taken on. */
        std::uint64_t configHash = 0;
        Program program;
        Cycle now = 0;
        std::uint64_t lostCtrlWords = 0;

        Cycle ctrlDrained = 0;
        std::vector<std::pair<Cycle, PendingCtrl>> ctrlEvents;
        Cycle pushDrained = 0;
        std::vector<std::pair<Cycle, PendingPush>> pushEvents;

        /** Claimed-but-undelivered words, pe * Pe::numChannels +
         *  channel (as meshInflight_). */
        std::vector<int> meshInflight;
        std::vector<int> fifoInflight;
        std::vector<std::vector<Word>> outputs;

        std::vector<Pe::State> pes;
        DataMesh::State mesh;
        std::vector<Word> scratchpadWords;
        StatGroupState scratchpadStats;
        /** Each control FIFO's words, oldest first: an empty FIFO
         *  holds no allocation. */
        std::vector<std::vector<Word>> fifoContents;
        std::vector<StatGroupState> fifoStats;
        StatGroupState machineStats;
        StatGroupState ctrlNetStats;
    };

    /** Capture the full machine state (requires a loaded program). */
    Snapshot snapshot() const;

    /**
     * Restore a snapshot taken on an identically-configured machine
     * (panics on a configHash mismatch).  Re-derives all static
     * per-program state (wake lists, control-network switch
     * configuration) and leaves the machine exactly as loaded —
     * injectData()/run() behave as they would have on the original.
     */
    void restore(const Snapshot &snapshot);

    static const FastForwardStats &
    fastForwardStats()
    {
        static const FastForwardStats zero;
        return zero;
    }

  private:
    void bootPes();
    bool configureControlNetwork(const Program &program);
    void scheduleCtrl(Cycle now, const CtrlSend &send, PeId src);
    void buildWakeLists();
    /** Put @p pe on the worklist (a no-op for a dead PE). */
    void wake(PeId pe);
    /** wake() @p pe when it sleeps on exactly this event. */
    void wakeIfWaiting(PeId pe, WakeOn on, PeId at, int index);
    /** Lowest awake PE id >= @p from; numPes() when none. */
    PeId nextAwake(PeId from) const;
    bool peDead(PeId pe) const
    { return peDead_[static_cast<std::size_t>(pe)] != 0; }
    /** meshInflight_'s slot for @p channel of @p pe. */
    static std::size_t
    inflightSlot(PeId pe, int channel)
    {
        return static_cast<std::size_t>(pe * Pe::numChannels + channel);
    }

    MachineConfig config_;
    std::vector<std::unique_ptr<Pe>> pes_;
    DataMesh mesh_;
    ControlNetwork ctrlNet_;
    std::unique_ptr<Scratchpad> scratchpad_;
    std::vector<std::unique_ptr<ControlFifo>> fifos_;

    Program program_;
    bool loaded_ = false;

    /** Dead flag per PE from the config's fault plan: a dead PE
     *  never boots, never ticks, and never leaves the initial
     *  asleep state on either run path. */
    std::vector<std::uint8_t> peDead_;
    /** Control words dropped because the (mesh-routed) control
     *  ablation found no route; cumulative like every counter. */
    std::uint64_t lostCtrlWords_ = 0;

    Cycle now_ = 0;
    CalendarQueue<PendingCtrl> pendingCtrl_;
    CalendarQueue<PendingPush> pendingPush_;
    /** Claimed-but-undelivered words per (pe, channel), at
     *  pe * Pe::numChannels + channel: reserved at issue, released
     *  when the word lands in the channel. */
    std::vector<int> meshInflight_;
    /** Scratch buffer for batching one firing's fan-out into a
     *  mesh multicast (run-loop hot path; avoids reallocation). */
    std::vector<std::pair<PeId, int>> multicastDests_;
    /** Claimed-but-unapplied control FIFO slots. */
    std::vector<int> fifoInflight_;
    std::vector<std::vector<Word>> outputs_;

    // ---- activity-driven worklist state (hot path only) ----
    /** Bit p % 64 of word p / 64: PE p is on the active worklist
     *  (ticks this cycle). */
    std::vector<std::uint64_t> awake_;
    /** Last cycle the PE actually ticked (backfill anchor). */
    std::vector<Cycle> lastTick_;
    /** Sleepers' PeWait::until wakes, bucketed by cycle.  An entry
     *  whose PE has since re-slept with another deadline is stale
     *  and ignored. */
    CalendarQueue<PeId> timedWakes_;
    /** The tick result every PE tick reuses. */
    PeTickResult tick_;
    /** Static wake topology of the loaded program: producers_[p]
     *  sends to p's channels (a pop by p may free their credit);
     *  pushers_[f] and poppers_[f] push and pop control FIFO f. */
    std::vector<std::vector<PeId>> producers_;
    std::vector<std::vector<PeId>> pushers_;
    std::vector<std::vector<PeId>> poppers_;

    StatGroup stats_;
    Stat &statCtrlWords_;
    Stat &statCycles_;
    Stat &statTotalFires_;
};

/** Convenience alias for the sweep layer's checkpoint cache. */
using MachineSnapshot = MarionetteMachine::Snapshot;

} // namespace marionette

#endif // MARIONETTE_ARCH_MACHINE_H

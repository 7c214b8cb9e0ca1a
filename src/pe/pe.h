/**
 * @file
 * The Marionette processing element (paper Fig. 4a/4c).
 *
 * A PE is split into two decoupled halves:
 *
 *  - the **data flow part**: input channels, local registers and the
 *    functional unit, executing the data-flow configuration of the
 *    current instruction in a producer/consumer pipeline; and
 *  - the **control flow part**: the Control Flow Trigger (two-phase
 *    check/configure unit, control_trigger.h), the Control Flow
 *    Sender (DFG / Branch / Loop operator modes, Fig. 7a) and the
 *    Control Flow Scheduler's arbitration, exchanging instruction
 *    addresses with peer PEs over the control network.
 *
 * The two halves are temporally loosely-coupled: a configuration
 * phase for the *next* basic block overlaps FU execution of the
 * *current* one, and in-flight FU operations complete under the
 * configuration they were issued with.
 */

#ifndef MARIONETTE_PE_PE_H
#define MARIONETTE_PE_PE_H

#include <optional>
#include <vector>

#include "isa/instruction.h"
#include "pe/channel.h"
#include "pe/control_trigger.h"
#include "sim/config.h"
#include "sim/stats.h"
#include "sim/types.h"

namespace marionette
{

/** Services the surrounding fabric offers a PE during its tick. */
class FabricIface
{
  public:
    virtual ~FabricIface() = default;

    /** Can a word be sent to @p dst's channel?  (Credit: occupancy
     *  plus claimed-but-undelivered must stay below depth.) */
    virtual bool dataCredit(PeId dst, int channel) = 0;

    /** Reserve one channel slot at issue time; the matching word
     *  is delivered later (execute latency + mesh transit). */
    virtual void claimDataCredit(PeId dst, int channel) = 0;

    /** Is a scratchpad bank port free for @p addr this cycle? */
    virtual bool memPortAvailable(Word addr) = 0;
    /** Claim a port and read. */
    virtual Word memRead(Word addr) = 0;
    /** Claim a port and write. */
    virtual void memWrite(Word addr, Word value) = 0;

    /** Control FIFO pop-side availability and pop. */
    virtual bool fifoHasData(int fifo) = 0;
    virtual Word fifoPop(int fifo) = 0;
    /** Control FIFO push-side space check (includes claims). */
    virtual bool fifoHasSpace(int fifo) = 0;
    /** Reserve one FIFO slot at issue time. */
    virtual void claimFifoSlot(int fifo) = 0;
};

/** A data word leaving the PE this cycle. */
struct DataSend
{
    PeId dstPe = invalidPe;
    int channel = 0;
    Word value = 0;
    /** Firing this word belongs to (dense per tick).  All sends of
     *  one firing carry the same value from the same source PE; the
     *  mesh forwards such a group as one multicast word, charging
     *  each shared link of the route tree once. */
    int group = 0;
};

/** A control word (instruction address) leaving the PE. */
struct CtrlSend
{
    std::vector<PeId> dests;
    InstrAddr addr = invalidInstr;
};

/** A control word pushed into a control FIFO. */
struct FifoPush
{
    int fifo = -1;
    Word value = 0;
};

/** Everything a PE produced during one tick. */
struct PeTickResult
{
    std::vector<DataSend> dataSends;
    /** Number of distinct DataSend groups (firings) this tick. */
    int dataGroups = 0;
    std::vector<std::pair<int, Word>> outputs;
    std::vector<CtrlSend> ctrlSends;
    std::vector<FifoPush> fifoPushes;
    bool progressed = false;
};

/**
 * Why a stalled PE fell idle.  The machine's activity-driven hot
 * path uses this to (a) decide whether the PE may leave the active
 * worklist — a memory-port stall must retry every cycle because
 * bank ports reset each cycle, everything else is woken by the
 * event that unblocks it — and (b) replay the exact per-cycle
 * stall statistics the reference tick-every-PE loop would have
 * recorded for the skipped cycles.
 */
enum class StallKind : std::uint8_t
{
    None,    ///< nothing attempted (no/idle configuration).
    Gate,    ///< waiting for a firing credit (control word).
    Operand, ///< waiting for channel data.
    Credit,  ///< waiting for downstream channel/FIFO space.
    Mem,     ///< waiting for a scratchpad bank port (per-cycle).
};

/** One Marionette processing element. */
class Pe
{
  public:
    static constexpr int numChannels = 4;

    Pe(PeId id, const MachineConfig &config, bool nonlinear_capable);

    PeId id() const { return id_; }

    /** Load the instruction buffer; clears runtime state. */
    void loadProgram(const PeProgram &program);

    /** Clear all runtime state (channels, regs, trigger, FU). */
    void reset();

    /** True when the PE has any instruction loaded. */
    bool hasProgram() const { return !instrs_.empty(); }

    /** Entry address requested by the program (controller boot). */
    InstrAddr entryAddr() const { return entry_; }

    /** Deposit a control word (check phase runs immediately). */
    void acceptControl(Cycle now, InstrAddr addr);

    /** Deposit a data word into a channel. */
    void acceptData(int channel, Word value);

    /** Free entries in a channel (the machine's credit check). */
    int channelSpace(int channel) const;

    /** Currently-configured instruction address. */
    InstrAddr currentAddr() const { return trigger_.currentAddr(); }

    /**
     * Advance one cycle: apply any finished configuration phase,
     * fire the data flow part if possible, retire in-flight FU
     * operations, and run the Control Flow Sender.
     */
    PeTickResult tick(Cycle now, FabricIface &fabric);

    /** True when nothing is in flight inside this PE. */
    bool quiescent() const;

    /**
     * True when the last tick's outcome repeats verbatim every
     * cycle until an external event (data/control/FIFO arrival,
     * downstream consumption) reaches this PE: nothing in flight,
     * no pending configuration or control input, no active loop
     * round, and the stall (if any) is not a per-cycle memory-port
     * retry.  Valid after a tick that reported no progress; the
     * machine uses it to drop the PE from the active worklist.
     */
    bool sleepEligible() const;

    /**
     * Account @p cycles skipped ticks, replaying exactly what the
     * reference loop would have recorded per cycle given the PE's
     * (frozen) state: active_cycles/stall_cycles for a configured
     * non-idle PE plus the one stall-reason counter of the last
     * attempt.  Call before the wake-up tick (or at end of run)
     * while the state is still untouched.
     */
    void backfillIdle(Cycles cycles);

    /**
     * True while the Loop operator is mid-round.  The machine's
     * watchdog uses this as its strandedness probe: a generator
     * still active when the whole fabric has gone silent can never
     * finish (a healthy round always runs to its bound and clears
     * the flag before quiescence).
     */
    bool midLoop() const { return loopActive_; }

    /** Transient-upset injection: XOR the head of input channel
     *  @p channel with @p xor_mask (no-op when empty). */
    void
    corruptChannel(int channel, Word xor_mask)
    {
        if (channel >= 0 &&
            channel < static_cast<int>(channels_.size()))
            channels_[static_cast<std::size_t>(channel)]
                .corruptFront(xor_mask);
    }

    /** Cumulative FU firings (utilization accounting). */
    std::uint64_t fires() const { return hot_.fires.value(); }

    StatGroup &stats() { return stats_; }
    const StatGroup &stats() const { return stats_; }

    /** An FU operation issued but not yet retired.  Public for the
     *  machine snapshot (arch/machine.h), which deep-copies the
     *  in-flight set verbatim. */
    struct InFlight
    {
        Cycle complete = 0;
        Word value = 0;
        /** Destinations captured at issue (loose coupling: the
         *  config may change before completion). */
        std::vector<DestSel> dests;
        /** BranchOp: control transfer to resolve at completion. */
        bool isBranch = false;
        InstrAddr takenAddr = invalidInstr;
        InstrAddr notTakenAddr = invalidInstr;
        std::vector<PeId> ctrlDests;
        int pushFifo = -1;
        bool isStore = false;
        Word storeAddr = 0;
    };

    /** Deep copy of the PE's run-time state (machine snapshots). */
    struct State
    {
        std::vector<Instruction> instrs;
        InstrAddr entry = invalidInstr;
        ControlFlowTrigger::State trigger;
        std::vector<std::deque<Word>> channels;
        std::vector<Word> regs;
        std::vector<InFlight> inflight;
        std::optional<InstrAddr> ctrlIn;
        int gateCredits = 0;
        int pendingGateCredits = 0;
        bool emitPending = false;
        bool emitOnData = false;
        bool loopActive = false;
        bool loopOnceDone = false;
        Word loopIter = 0;
        Word loopBound = 0;
        Cycle loopNextFire = 0;
        StallKind lastStall = StallKind::None;
        StatGroupState stats;
    };

    State saveState() const;
    void restoreState(const State &state);

  private:
    const Instruction *current() const;

    bool operandReady(const OperandSel &sel) const;
    Word operandValue(const OperandSel &sel) const;
    void consumeOperand(const OperandSel &sel);

    bool tryFire(Cycle now, FabricIface &fabric, PeTickResult &out);
    bool tryFireLoop(Cycle now, FabricIface &fabric,
                     PeTickResult &out);
    void retire(Cycle now, FabricIface &fabric, PeTickResult &out);
    void applyConfiguration(Cycle now, PeTickResult &out);

    /** Pre-resolved handles for every per-cycle/per-event counter:
     *  one string-map lookup each at construction, none afterwards. */
    struct HotStats
    {
        explicit HotStats(StatGroup &g);

        Stat &fires;
        Stat &activeCycles;
        Stat &stallCycles;
        Stat &stallGate;
        Stat &stallOperand;
        Stat &stallCredit;
        Stat &stallMem;
        Stat &ctrlArbitrations;
        Stat &ctrlSustained;
        Stat &configSwitches;
        Stat &configsApplied;
        Stat &proactiveEmits;
        Stat &loopRounds;
        Stat &loopExits;
        Stat &loopIterations;
        Stat &stores;
        Stat &branchesResolved;
    };

    PeId id_;
    const MachineConfig &config_;
    bool nonlinearCapable_;

    std::vector<Instruction> instrs_;
    InstrAddr entry_ = invalidInstr;

    ControlFlowTrigger trigger_;
    std::vector<InputChannel> channels_;
    std::vector<Word> regs_;
    std::vector<InFlight> inflight_;

    /** Pending check-phase input (Control Flow Scheduler arbiter
     *  keeps the most recent word of the cycle). */
    std::optional<InstrAddr> ctrlIn_;

    /** Firing credits granted by received control words (lockstep
     *  gating of branch-target PEs; see Instruction::ctrlGated).
     *  A credit becomes usable only once its configuration has
     *  applied, so the k-th datum always fires under the k-th
     *  configuration. */
    int gateCredits_ = 0;
    /** Credits waiting for their configuration phase to finish. */
    int pendingGateCredits_ = 0;

    /** One-shot proactive emit armed when a Dfg config applies. */
    bool emitPending_ = false;
    /** When proactive configuration is disabled, the emit fires
     *  with the first datum instead (temporally tight coupling). */
    bool emitOnData_ = false;

    // Loop operator runtime state.
    bool loopActive_ = false;
    /** An immediate-bound loop runs one round per configuration. */
    bool loopOnceDone_ = false;
    Word loopIter_ = 0;
    Word loopBound_ = 0;
    Cycle loopNextFire_ = 0;

    /** Stall reason of the most recent tick's firing attempt. */
    StallKind lastStall_ = StallKind::None;

    StatGroup stats_;
    HotStats hot_;
};

} // namespace marionette

#endif // MARIONETTE_PE_PE_H

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
#include <span>
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
    /** A view of the sending instruction's ctrlDests: valid until
     *  the PE loads or restores another program. */
    std::span<const PeId> dests;
    InstrAddr addr = invalidInstr;
};

/** A control word pushed into a control FIFO. */
struct FifoPush
{
    int fifo = -1;
    Word value = 0;
};

/** Everything a PE produced during one tick.  The machine reuses
 *  one result for every tick, so the vectors keep their capacity. */
struct PeTickResult
{
    std::vector<DataSend> dataSends;
    /** Number of distinct DataSend groups (firings) this tick. */
    int dataGroups = 0;
    std::vector<std::pair<int, Word>> outputs;
    std::vector<CtrlSend> ctrlSends;
    std::vector<FifoPush> fifoPushes;
    /** Bit c set: the firing popped input channel c (freeing a
     *  credit its producers may wait on). */
    std::uint8_t poppedChannels = 0;
    bool progressed = false;

    void
    clear()
    {
        dataSends.clear();
        dataGroups = 0;
        outputs.clear();
        ctrlSends.clear();
        fifoPushes.clear();
        poppedChannels = 0;
        progressed = false;
    }
};

/**
 * Why a stalled PE fell idle: the per-reason stall counter its
 * failed firing attempt recorded (or, after a firing, the one its
 * next attempt will record).  The machine's activity-driven hot path
 * replays exactly these statistics for the ticks a sleeping PE skips
 * (Pe::backfillIdle).  What wakes the PE is a separate record,
 * PeWait, because loop-mode waits count no stall reason.
 */
enum class StallKind : std::uint8_t
{
    None,    ///< nothing attempted (no/idle configuration).
    Gate,    ///< waiting for a firing credit (control word).
    Operand, ///< waiting for channel data.
    Credit,  ///< waiting for downstream channel/FIFO space.
    Mem,     ///< waiting for a scratchpad bank port (per-cycle).
};

/**
 * The one external event that can change the outcome of a PE's next
 * tick.  Each gate of a firing attempt that fails names the event
 * that re-arms it: an empty operand channel waits for a word on that
 * channel, a full downstream channel for its consumer's pop, and so
 * on.  A control word or a transient upset can move any PE, so the
 * machine always delivers those.
 */
enum class WakeOn : std::uint8_t
{
    Tick,      ///< no event: tick again next cycle (the next
               ///< attempt may pass every gate, or it lost a
               ///< scratchpad port, whose ports reset every cycle).
    Control,   ///< nothing else (idle, gated, or a paced or spent
               ///< loop).
    Channel,   ///< a word arriving on channel `index` of this PE.
    Credit,    ///< a pop from channel `index` of consumer PE `pe`.
    FifoSpace, ///< a pop from control FIFO `index`.
    FifoData,  ///< a push landing in control FIFO `index`.
};

/** What ends the sleep of a PE whose next firing attempt would
 *  find a gate closed. */
struct PeWait
{
    WakeOn on = WakeOn::Tick;
    /** Channel: this PE; Credit: the consumer; otherwise invalidPe. */
    PeId pe = invalidPe;
    /** The channel or control FIFO the event concerns. */
    int index = -1;
    /** Cycle at which the PE moves on its own (an FU op retires, a
     *  loop's II elapses, a configuration applies); neverCycle when
     *  only an event can move it. */
    Cycle until = neverCycle;
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
     * operations, and run the Control Flow Sender.  Clears @p out,
     * then fills it with what the PE produced.
     */
    void tick(Cycle now, FabricIface &fabric, PeTickResult &out);

    /**
     * The wake decision, valid after every tick.  Unless wait().on
     * is WakeOn::Tick, the firing attempt found a gate closed — or,
     * after a firing, the next attempt would — and every later tick
     * would fail there and count the same stall (lastStall_) until
     * wait().until or the wait().on event (or a control word or an
     * upset) reaches this PE, whether or not something else (a
     * retire, a configuration) progressed this tick.  The machine's
     * activity-driven hot path parks the PE until then.
     */
    const PeWait &wait() const { return wait_; }

    /**
     * Account @p cycles skipped ticks, replaying exactly what the
     * reference loop would have recorded per cycle given the PE's
     * (frozen) state: active_cycles/stall_cycles for a configured
     * non-idle PE plus the one stall-reason counter of the gate it
     * waits at (lastStall_).  Call before the wake-up tick (or at
     * end of run) while the state is still untouched.
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
        /** Issuing instruction.  Retire reads its destinations,
         *  branch targets and FIFO push from the instruction buffer,
         *  which stays fixed while the program is loaded (loose
         *  coupling: the PE may reconfigure before completion). */
        InstrAddr addr = invalidInstr;
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
    void popChannel(int channel, PeTickResult &out);

    /** Record (lastStall_, wait_) and return true at the first
     *  closed gate of a DFG/branch firing of @p in before the
     *  memory port: lockstep credit, operands, downstream credit.
     *  Only reads the fabric. */
    bool gateClosed(const Instruction &in, FabricIface &fabric);
    /** Record wait_ and return true when a destination of @p in
     *  lacks credit (channel or control FIFO).  Only reads. */
    bool creditClosed(const Instruction &in, FabricIface &fabric);
    /** Count @p cycles of lastStall_'s per-reason stall counter. */
    void countStall(Cycles cycles);

    bool tryFire(Cycle now, FabricIface &fabric, PeTickResult &out);
    bool tryFireLoop(Cycle now, FabricIface &fabric,
                     PeTickResult &out);
    void retire(Cycle now, PeTickResult &out);
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
    /** What the most recent tick waits for (see wait()). */
    PeWait wait_;

    StatGroup stats_;
    HotStats hot_;
};

} // namespace marionette

#endif // MARIONETTE_PE_PE_H

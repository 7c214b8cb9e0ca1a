#include "pe/pe.h"

#include <algorithm>

#include "sim/logging.h"

namespace marionette
{

Pe::HotStats::HotStats(StatGroup &g)
    : fires(g.stat("fires")),
      activeCycles(g.stat("active_cycles")),
      stallCycles(g.stat("stall_cycles")),
      stallGate(g.stat("stall_gate")),
      stallOperand(g.stat("stall_operand")),
      stallCredit(g.stat("stall_credit")),
      stallMem(g.stat("stall_mem")),
      ctrlArbitrations(g.stat("ctrl_arbitrations")),
      ctrlSustained(g.stat("ctrl_sustained")),
      configSwitches(g.stat("config_switches")),
      configsApplied(g.stat("configs_applied")),
      proactiveEmits(g.stat("proactive_emits")),
      loopRounds(g.stat("loop_rounds")),
      loopExits(g.stat("loop_exits")),
      loopIterations(g.stat("loop_iterations")),
      stores(g.stat("stores")),
      branchesResolved(g.stat("branches_resolved"))
{
}

Pe::Pe(PeId id, const MachineConfig &config, bool nonlinear_capable)
    : id_(id),
      config_(config),
      nonlinearCapable_(nonlinear_capable),
      trigger_(config.configLatency),
      regs_(static_cast<std::size_t>(config.localRegs), 0),
      stats_("pe" + std::to_string(id)),
      hot_(stats_)
{
}

void
Pe::loadProgram(const PeProgram &program)
{
    reset();
    instrs_ = program.instrs;
    for (const Instruction &in : instrs_) {
        if (isNonlinearOp(in.op) && !nonlinearCapable_)
            MARIONETTE_FATAL("nonlinear op '%.*s' mapped to "
                             "ordinary PE %d",
                             static_cast<int>(opName(in.op).size()),
                             opName(in.op).data(), id_);
    }
}

void
Pe::reset()
{
    trigger_.reset();
    for (InputChannel &ch : channels_)
        ch.clear();
    std::fill(regs_.begin(), regs_.end(), 0);
    inflight_.clear();
    ctrlIn_.reset();
    gateCredits_ = 0;
    pendingGateCredits_ = 0;
    emitOnData_ = false;
    loopActive_ = false;
    loopOnceDone_ = false;
    loopIter_ = 0;
    loopBound_ = 0;
    loopNextFire_ = 0;
    lastStall_ = StallKind::None;
    wait_ = PeWait{};
}

void
Pe::acceptControl(Cycle now, InstrAddr addr)
{
    (void)now;
    // Control Flow Scheduler arbitration: last word of the cycle
    // wins; simultaneous distinct words indicate a compiler bug and
    // are counted.
    if (ctrlIn_.has_value() && *ctrlIn_ != addr)
        hot_.ctrlArbitrations.inc();
    ctrlIn_ = addr;
}

void
Pe::acceptData(int channel, Word value)
{
    MARIONETTE_ASSERT(channel >= 0 && channel < numChannels,
                      "bad channel %d at pe %d", channel, id_);
    channels_[static_cast<std::size_t>(channel)].push(value);
}

int
Pe::channelSpace(int channel) const
{
    MARIONETTE_ASSERT(channel >= 0 && channel < numChannels,
                      "bad channel %d at pe %d", channel, id_);
    return channels_[static_cast<std::size_t>(channel)].space();
}

const Instruction *
Pe::current() const
{
    InstrAddr addr = trigger_.currentAddr();
    if (addr == invalidInstr ||
        addr >= static_cast<InstrAddr>(instrs_.size()))
        return nullptr;
    return &instrs_[static_cast<std::size_t>(addr)];
}

bool
Pe::operandReady(const OperandSel &sel) const
{
    switch (sel.kind) {
      case OperandSel::Kind::None:
      case OperandSel::Kind::Reg:
      case OperandSel::Kind::Imm:
        return true;
      case OperandSel::Kind::Channel:
        return !channels_[static_cast<std::size_t>(sel.index)]
                    .empty();
    }
    return false;
}

Word
Pe::operandValue(const OperandSel &sel) const
{
    switch (sel.kind) {
      case OperandSel::Kind::None:
        return 0;
      case OperandSel::Kind::Reg:
        MARIONETTE_ASSERT(sel.index >= 0 &&
                              sel.index <
                                  static_cast<int>(regs_.size()),
                          "bad register %d", sel.index);
        return regs_[static_cast<std::size_t>(sel.index)];
      case OperandSel::Kind::Imm:
        return sel.imm;
      case OperandSel::Kind::Channel:
        return channels_[static_cast<std::size_t>(sel.index)]
            .front();
    }
    return 0;
}

void
Pe::popChannel(int channel, PeTickResult &out)
{
    channels_[static_cast<std::size_t>(channel)].pop();
    out.poppedChannels |= static_cast<std::uint8_t>(1u << channel);
}

void
Pe::applyConfiguration(Cycle now, PeTickResult &out)
{
    InstrAddr applied = trigger_.applyPhase(now);
    if (applied == invalidInstr)
        return;
    out.progressed = true;
    hot_.configsApplied.inc();

    const Instruction *in = current();
    if (in == nullptr)
        return;

    // Entering a loop configuration resets the generator state.
    if (in->mode == SenderMode::LoopOp) {
        loopActive_ = false;
        loopOnceDone_ = false;
        loopIter_ = 0;
        loopNextFire_ = now;
    }

    // Proactive PE Configuration (Sec. 4.2): in DFG operator mode
    // the next-stage address is emitted as soon as this PE is
    // configured, overlapping downstream configuration with local
    // computation.  With the feature disabled the emission waits for
    // the first datum (temporally tight coupling).
    if (in->mode == SenderMode::Dfg &&
        in->emitAddr != invalidInstr && !in->ctrlDests.empty()) {
        if (config_.features.proactiveConfig) {
            out.ctrlSends.push_back(
                CtrlSend{in->ctrlDests, in->emitAddr});
            hot_.proactiveEmits.inc();
        } else {
            emitOnData_ = true;
        }
    }
}

bool
Pe::tryFireLoop(Cycle now, const Instruction &in, FabricIface &fabric,
                PeTickResult &out)
{
    // Acquire a new round when idle.  FIFO-fed loops start a round
    // per FIFO entry (Sec. 4.3); immediate-bound loops run exactly
    // one round per configuration.
    if (!loopActive_) {
        Word start = in.loopStart;
        Word bound = in.loopBound;
        bool fifo_fed = in.startFifo >= 0 || in.boundFifo >= 0;
        if (!fifo_fed && loopOnceDone_) {
            wait_.on = WakeOn::Control;
            return false;
        }
        for (int fifo : {in.startFifo, in.boundFifo}) {
            if (fifo >= 0 && !fabric.fifoHasData(fifo)) {
                wait_ = PeWait{WakeOn::FifoData, invalidPe, fifo};
                return false;
            }
        }
        if (in.startFifo >= 0)
            start = fabric.fifoPop(in.startFifo);
        if (in.boundFifo >= 0)
            bound = fabric.fifoPop(in.boundFifo);
        loopIter_ = start;
        loopBound_ = bound;
        loopActive_ = true;
        loopNextFire_ = now;
        hot_.loopRounds.inc();
    }

    if (now < loopNextFire_) {
        wait_.on = WakeOn::Control;
        wait_.until = loopNextFire_;
        return false;
    }

    if (loopIter_ >= loopBound_) {
        // Round complete: emit the exit address once, go idle.
        loopActive_ = false;
        if (in.startFifo < 0 && in.boundFifo < 0)
            loopOnceDone_ = true;
        if (in.loopExitAddr != invalidInstr && !in.ctrlDests.empty()) {
            out.ctrlSends.push_back(
                CtrlSend{in.ctrlDests, in.loopExitAddr});
            hot_.loopExits.inc();
        }
        return true;
    }

    // Credit check on every data destination before generating.
    if (creditClosed(in, fabric))
        return false;
    for (const DestSel &d : in.dests) {
        if (d.kind == DestSel::Kind::PeChannel)
            fabric.claimDataCredit(d.pe, d.channel);
    }
    if (in.pushFifo >= 0)
        fabric.claimFifoSlot(in.pushFifo);

    // Emit the induction value.  All channel dests of this firing
    // share one group: the mesh multicasts them as a single word.
    const int group = out.dataGroups++;
    for (const DestSel &d : in.dests) {
        switch (d.kind) {
          case DestSel::Kind::PeChannel:
            out.dataSends.push_back(
                DataSend{d.pe, d.channel, loopIter_, group});
            break;
          case DestSel::Kind::LocalReg:
            regs_[static_cast<std::size_t>(d.channel)] = loopIter_;
            break;
          case DestSel::Kind::OutputFifo:
            out.outputs.emplace_back(d.channel, loopIter_);
            break;
          case DestSel::Kind::None:
            break;
        }
    }
    if (in.pushFifo >= 0)
        out.fifoPushes.push_back(FifoPush{in.pushFifo, loopIter_});

    loopIter_ += in.loopStep;
    loopNextFire_ =
        now + static_cast<Cycles>(std::max(1, in.pipelineII));
    hot_.fires.inc();
    hot_.loopIterations.inc();
    // Nothing moves the generator before its next II slot; at
    // II = 1 that is the next tick anyway.
    if (loopNextFire_ > now + 1)
        wait_ = PeWait{WakeOn::Control, invalidPe, -1, loopNextFire_};
    return true;
}

bool
Pe::creditClosed(const Instruction &in, FabricIface &fabric)
{
    for (const DestSel &d : in.dests) {
        if (d.kind == DestSel::Kind::PeChannel &&
            !fabric.dataCredit(d.pe, d.channel)) {
            wait_ = PeWait{WakeOn::Credit, d.pe, d.channel};
            return true;
        }
    }
    if (in.pushFifo >= 0 && !fabric.fifoHasSpace(in.pushFifo)) {
        wait_ = PeWait{WakeOn::FifoSpace, invalidPe, in.pushFifo};
        return true;
    }
    return false;
}

bool
Pe::gateClosed(const Instruction &in, FabricIface &fabric)
{
    // Lockstep gating: one firing per received control word.
    if (in.ctrlGated && gateCredits_ <= 0) {
        lastStall_ = StallKind::Gate;
        wait_.on = WakeOn::Control;
        return true;
    }
    // Operand readiness: the first empty channel is the one to
    // wait on.
    auto empty = [&](int channel) {
        lastStall_ = StallKind::Operand;
        wait_ = PeWait{WakeOn::Channel, id_, channel};
        return true;
    };
    for (const OperandSel *sel : {&in.a, &in.b, &in.c})
        if (!operandReady(*sel))
            return empty(sel->index);
    for (std::int8_t ch : in.alsoPop)
        if (channels_[static_cast<std::size_t>(ch)].empty())
            return empty(ch);
    // Destination credit.
    if (creditClosed(in, fabric)) {
        lastStall_ = StallKind::Credit;
        return true;
    }
    return false;
}

void
Pe::countStall(Cycles cycles)
{
    switch (lastStall_) {
      case StallKind::Gate:
        hot_.stallGate.inc(cycles);
        break;
      case StallKind::Operand:
        hot_.stallOperand.inc(cycles);
        break;
      case StallKind::Credit:
        hot_.stallCredit.inc(cycles);
        break;
      case StallKind::Mem:
        hot_.stallMem.inc(cycles);
        break;
      case StallKind::None:
        break; // loop-mode waits record no per-reason counter.
    }
}

bool
Pe::tryFire(Cycle now, const Instruction *in, FabricIface &fabric,
            PeTickResult &out)
{
    if (in == nullptr || in->mode == SenderMode::Idle) {
        wait_.on = WakeOn::Control;
        return false;
    }

    if (in->mode == SenderMode::LoopOp)
        return tryFireLoop(now, *in, fabric, out);

    if (gateClosed(*in, fabric)) {
        countStall(1);
        return false;
    }

    // Memory port.  A predicated-off access (Load predicate in
    // operand b, Store predicate in operand c; see the compiler's
    // gated lowering) skips the scratchpad entirely, so it needs no
    // port.
    bool mem_active = false;
    Word eff_addr = 0;
    if (isMemoryOp(in->op)) {
        mem_active =
            in->op == Opcode::Load
                ? (in->b.kind == OperandSel::Kind::None ||
                   operandValue(in->b) != 0)
                : (in->c.kind == OperandSel::Kind::None ||
                   operandValue(in->c) != 0);
        if (mem_active) {
            eff_addr = operandValue(in->a) + in->memBase;
            if (!fabric.memPortAvailable(eff_addr)) {
                // No wait: the PE retries next cycle.
                lastStall_ = StallKind::Mem;
                countStall(1);
                return false;
            }
        }
    }

    // All checks passed: reserve the downstream slots this firing
    // will eventually fill (delivery happens at retire + transit).
    for (const DestSel &d : in->dests) {
        if (d.kind == DestSel::Kind::PeChannel)
            fabric.claimDataCredit(d.pe, d.channel);
    }
    if (in->pushFifo >= 0)
        fabric.claimFifoSlot(in->pushFifo);

    // ---- Issue. ----
    Word av = operandValue(in->a);
    Word bv = operandValue(in->b);
    Word cv = operandValue(in->c);
    for (const OperandSel *sel : {&in->a, &in->b, &in->c})
        if (sel->kind == OperandSel::Kind::Channel)
            popChannel(sel->index, out);
    for (std::int8_t ch : in->alsoPop)
        popChannel(ch, out);

    InFlight op;
    op.complete = now + config_.executeLatency;
    op.addr = trigger_.currentAddr();

    switch (in->op) {
      case Opcode::Load:
        // A masked load (predicate 0 in operand b) produces 0
        // without touching memory.
        op.value = mem_active ? fabric.memRead(av + in->memBase)
                              : 0;
        break;
      case Opcode::Store:
        // Memory ops take effect at issue so issue order defines
        // memory order; the value still travels to any data
        // destinations with the normal execute latency.  A masked
        // store (predicate 0 in operand c) forwards its value but
        // writes nothing.
        if (mem_active) {
            fabric.memWrite(av + in->memBase, bv);
            hot_.stores.inc();
        }
        op.value = bv;
        break;
      default:
        op.value = evalOp(in->op, av, bv, cv);
        break;
    }

    inflight_.push_back(op);
    hot_.fires.inc();
    if (in->ctrlGated)
        --gateCredits_;

    // Tight-coupling fallback: emit the downstream address together
    // with the first datum of this configuration.
    if (emitOnData_ && in->emitAddr != invalidInstr &&
        !in->ctrlDests.empty()) {
        out.ctrlSends.push_back(
            CtrlSend{in->ctrlDests, in->emitAddr});
        emitOnData_ = false;
    }

    // The next attempt finds this firing's operands and credits
    // taken.  A gate that is closed now stays closed until the event
    // it records (gateClosed only reads the fabric), so the machine
    // can park the PE at once; lastStall_ is then what its skipped
    // ticks would count.  Past the gates only the memory port is
    // left, which must be retried each cycle.
    gateClosed(*in, fabric);
    return true;
}

void
Pe::retire(Cycle now, PeTickResult &out)
{
    for (auto it = inflight_.begin(); it != inflight_.end();) {
        if (it->complete > now) {
            ++it;
            continue;
        }
        out.progressed = true;
        const Instruction &in =
            instrs_[static_cast<std::size_t>(it->addr)];
        // One retiring operation = one firing's worth of sends =
        // one multicast group on the mesh.
        const int group = out.dataGroups++;
        for (const DestSel &d : in.dests) {
            switch (d.kind) {
              case DestSel::Kind::PeChannel:
                out.dataSends.push_back(
                    DataSend{d.pe, d.channel, it->value, group});
                break;
              case DestSel::Kind::LocalReg:
                regs_[static_cast<std::size_t>(d.channel)] =
                    it->value;
                break;
              case DestSel::Kind::OutputFifo:
                out.outputs.emplace_back(d.channel, it->value);
                break;
              case DestSel::Kind::None:
                break;
            }
        }
        if (in.mode != SenderMode::BranchOp) {
            if (in.pushFifo >= 0)
                out.fifoPushes.push_back(
                    FifoPush{in.pushFifo, it->value});
        } else {
            InstrAddr target =
                it->value != 0 ? in.takenAddr : in.notTakenAddr;
            if (target != invalidInstr && !in.ctrlDests.empty())
                out.ctrlSends.push_back(
                    CtrlSend{in.ctrlDests, target});
            if (in.pushFifo >= 0)
                out.fifoPushes.push_back(
                    FifoPush{in.pushFifo, target});
            hot_.branchesResolved.inc();
        }
        it = inflight_.erase(it);
    }
}

void
Pe::tick(Cycle now, FabricIface &fabric, PeTickResult &out)
{
    out.clear();
    lastStall_ = StallKind::None;
    wait_ = PeWait{};

    // Configuration phase first: apply the configuration whose
    // check phase ran in an earlier cycle, *before* looking at new
    // control input — otherwise a back-to-back control stream
    // (II = 1 branch divergence) would clobber a pending
    // configuration before it ever took effect.  A gated PE defers
    // applying while unconsumed firing credits remain, keeping the
    // datum/configuration pairing exact.
    const Instruction *in = current();
    const bool gated_busy =
        in != nullptr && in->ctrlGated && gateCredits_ > 0;
    if (!gated_busy) {
        applyConfiguration(now, out);
        if (pendingGateCredits_ > 0 && !trigger_.configuring()) {
            gateCredits_ += pendingGateCredits_;
            pendingGateCredits_ = 0;
        }
    }

    // Check phase: arbitrated control input delivered this cycle.
    if (ctrlIn_.has_value()) {
        bool reconfig =
            trigger_.checkPhase(now, *ctrlIn_, hot_.ctrlSustained,
                                hot_.configSwitches);
        if (reconfig)
            ++pendingGateCredits_;
        else
            ++gateCredits_;
        ctrlIn_.reset();
        out.progressed = true;
    }

    // Data flow part: retire completed work, then try to issue.
    // The configuration phase is over, so the instruction stays
    // fixed for the rest of the tick.
    in = current();
    const bool active = in != nullptr && in->mode != SenderMode::Idle;
    retire(now, out);
    if (tryFire(now, in, fabric, out))
        out.progressed = true;
    else if (active)
        hot_.stallCycles.inc();

    if (active)
        hot_.activeCycles.inc();

    if (wait_.on != WakeOn::Tick) {
        // Nothing runs after the firing attempt, so the next tick
        // differs only if an op retires (all complete after now) or
        // the configuration applies.  The lockstep gate defers that
        // while credits remain (a firing, which wait_ already waits
        // for, must spend them); a configuration that became ready
        // while deferred applies on the next tick.
        for (const InFlight &op : inflight_)
            wait_.until = std::min(wait_.until, op.complete);
        const bool gated_next =
            in != nullptr && in->ctrlGated && gateCredits_ > 0;
        if (trigger_.configuring() && !gated_next)
            wait_.until = std::min(
                wait_.until, std::max(trigger_.readyAt(), now + 1));
    }
}

void
Pe::backfillIdle(Cycles cycles)
{
    if (cycles == 0)
        return;
    // The state is frozen while asleep, so every skipped tick would
    // have counted the same: an active, stalled cycle failing at the
    // gate lastStall_ names.
    const Instruction *in = current();
    if (in == nullptr || in->mode == SenderMode::Idle)
        return; // a dormant PE records nothing per cycle.
    hot_.activeCycles.inc(cycles);
    hot_.stallCycles.inc(cycles);
    countStall(cycles);
}

Pe::State
Pe::saveState() const
{
    State s;
    s.instrs = instrs_;
    s.trigger = trigger_.saveState();
    for (std::size_t i = 0; i < channels_.size(); ++i)
        s.channels[i] = channels_[i].contents();
    s.regs = regs_;
    s.inflight = inflight_;
    s.ctrlIn = ctrlIn_;
    s.gateCredits = gateCredits_;
    s.pendingGateCredits = pendingGateCredits_;
    s.emitOnData = emitOnData_;
    s.loopActive = loopActive_;
    s.loopOnceDone = loopOnceDone_;
    s.loopIter = loopIter_;
    s.loopBound = loopBound_;
    s.loopNextFire = loopNextFire_;
    s.lastStall = lastStall_;
    s.stats = stats_.captureState();
    return s;
}

void
Pe::restoreState(const State &s)
{
    instrs_ = s.instrs;
    trigger_.restoreState(s.trigger);
    for (std::size_t i = 0; i < channels_.size(); ++i)
        channels_[i].restore(s.channels[i]);
    regs_ = s.regs;
    inflight_ = s.inflight;
    ctrlIn_ = s.ctrlIn;
    gateCredits_ = s.gateCredits;
    pendingGateCredits_ = s.pendingGateCredits;
    emitOnData_ = s.emitOnData;
    loopActive_ = s.loopActive;
    loopOnceDone_ = s.loopOnceDone;
    loopIter_ = s.loopIter;
    loopBound_ = s.loopBound;
    loopNextFire_ = s.loopNextFire;
    lastStall_ = s.lastStall;
    stats_.restoreState(s.stats);
}

} // namespace marionette

#include "arch/machine.h"

#include "isa/encoding.h"

#include <algorithm>
#include <bit>
#include <set>
#include <sstream>
#include <string>

#include "sim/logging.h"

namespace marionette
{

const char *
runErrorName(RunError error)
{
    switch (error) {
      case RunError::None:
        return "none";
      case RunError::DeadPe:
        return "dead_pe";
      case RunError::Deadlock:
        return "deadlock";
      case RunError::CycleLimit:
        return "cycle_limit";
      case RunError::BadProgram:
        return "bad_program";
      case RunError::Protocol:
        return "protocol";
    }
    return "unknown";
}

MarionetteMachine::MarionetteMachine(const MachineConfig &config)
    : config_(config),
      mesh_(config.rows, config.cols, config.meshHopLatency),
      ctrlNet_(config.numPes(), config.controlFifoCount + 2),
      stats_("machine"),
      statCtrlWords_(stats_.stat("ctrl_words")),
      statCycles_(stats_.stat("cycles")),
      statTotalFires_(stats_.stat("total_fires"))
{
    config_.validate();
    // Install the fault plan as hardware state: dead PEs never boot
    // or tick, and the mesh routes around (or drops on) dead links.
    // A PE whose every incident link is down is effectively dead
    // too — it could boot but never exchange a word.
    peDead_.assign(static_cast<std::size_t>(config_.numPes()), 0);
    for (PeId p :
         config_.faults.effectiveDeadPes(config_.rows, config_.cols))
        peDead_[static_cast<std::size_t>(p)] = 1;
    if (!config_.faults.deadLinks.empty())
        mesh_.setDeadLinks(config_.faults.deadLinks);
    scratchpad_ = std::make_unique<Scratchpad>(
        config_.scratchpadBytes, config_.scratchpadBanks,
        /*ports_per_bank=*/2);
    for (int i = 0; i < config_.numPes(); ++i) {
        // The last nonlinearPes PEs carry the nonlinear FU
        // (Table 4: 12 ordinary + 4 nonlinear on the prototype).
        bool nonlinear =
            i >= config_.numPes() - config_.nonlinearPes;
        pes_.push_back(std::make_unique<Pe>(
            static_cast<PeId>(i), config_, nonlinear));
    }
    for (int i = 0; i < config_.controlFifoCount; ++i)
        fifos_.push_back(std::make_unique<ControlFifo>(
            config_.controlFifoDepth,
            "cfifo" + std::to_string(i)));
    meshInflight_.assign(
        static_cast<std::size_t>(config_.numPes() * Pe::numChannels),
        0);
    fifoInflight_.assign(
        static_cast<std::size_t>(config_.controlFifoCount), 0);
    awake_.assign((static_cast<std::size_t>(config_.numPes()) + 63) / 64,
                  0);
    lastTick_.assign(static_cast<std::size_t>(config_.numPes()), 0);
    producers_.assign(static_cast<std::size_t>(config_.numPes()), {});
    pushers_.assign(
        static_cast<std::size_t>(config_.controlFifoCount), {});
    poppers_.assign(
        static_cast<std::size_t>(config_.controlFifoCount), {});
}

void
MarionetteMachine::load(const Program &program)
{
    for (const PeProgram &p : program.pes) {
        if (p.pe < 0 || p.pe >= config_.numPes())
            MARIONETTE_FATAL("program '%s' targets PE %d outside "
                             "the %dx%d array",
                             program.name.c_str(), p.pe,
                             config_.rows, config_.cols);
    }
    // The controller's instruction scratchpad (Table 4: 2 KiB)
    // must hold the whole binary configuration.
    std::size_t config_bytes =
        encodeProgram(program).size() * sizeof(std::uint32_t);
    if (config_bytes >
        static_cast<std::size_t>(config_.instrMemBytes))
        MARIONETTE_FATAL("kernel '%s' needs %zu configuration "
                         "bytes, the instruction scratchpad holds "
                         "%d", program.name.c_str(), config_bytes,
                         config_.instrMemBytes);

    program_ = program;
    loaded_ = true;
    now_ = 0;
    pendingCtrl_.clear();
    pendingPush_.clear();
    mesh_.clearInFlight();
    std::fill(meshInflight_.begin(), meshInflight_.end(), 0);
    std::fill(fifoInflight_.begin(), fifoInflight_.end(), 0);
    outputs_.assign(
        static_cast<std::size_t>(std::max(1, program.numOutputs)),
        {});
    for (auto &pe : pes_)
        pe->reset();
    for (auto &fifo : fifos_)
        fifo->clear();
    for (const PeProgram &p : program.pes)
        pes_[static_cast<std::size_t>(p.pe)]->loadProgram(p);
    buildWakeLists();

    if (config_.features.controlNetwork) {
        if (!configureControlNetwork(program))
            MARIONETTE_FATAL("kernel '%s' exceeds control network "
                             "capacity", program.name.c_str());
    }
}

void
MarionetteMachine::buildWakeLists()
{
    // Static wake topology of the loaded kernel: the candidates an
    // event may wake.  Each list is the union over all of a PE's
    // instructions; a sleeper is woken only when its PeWait names
    // the event, so the lists only bound the search.
    const std::size_t num_pes =
        static_cast<std::size_t>(config_.numPes());
    std::vector<std::set<PeId>> producers(num_pes);
    std::vector<std::set<PeId>> pushers(fifos_.size());
    std::vector<std::set<PeId>> poppers(fifos_.size());
    auto fifo_ok = [&](int f) {
        return f >= 0 && f < static_cast<int>(fifos_.size());
    };
    for (const PeProgram &p : program_.pes) {
        for (const Instruction &in : p.instrs) {
            for (const DestSel &d : in.dests)
                if (d.kind == DestSel::Kind::PeChannel &&
                    d.pe >= 0 &&
                    d.pe < static_cast<PeId>(num_pes))
                    producers[static_cast<std::size_t>(d.pe)]
                        .insert(p.pe);
            if (fifo_ok(in.pushFifo))
                pushers[static_cast<std::size_t>(in.pushFifo)]
                    .insert(p.pe);
            for (int f : {in.startFifo, in.boundFifo})
                if (fifo_ok(f))
                    poppers[static_cast<std::size_t>(f)].insert(p.pe);
        }
    }
    for (std::size_t p = 0; p < num_pes; ++p)
        producers_[p].assign(producers[p].begin(), producers[p].end());
    for (std::size_t f = 0; f < fifos_.size(); ++f) {
        pushers_[f].assign(pushers[f].begin(), pushers[f].end());
        poppers_[f].assign(poppers[f].begin(), poppers[f].end());
    }
}

bool
MarionetteMachine::configureControlNetwork(const Program &program)
{
    // Static configuration: one multicast route per PE that sends
    // control, covering the union of its instructions' destinations
    // (the compiler's "fixed connection", Sec. 4.1).
    std::vector<ControlRoute> routes;
    for (const PeProgram &p : program.pes) {
        std::set<int> dests;
        for (const Instruction &in : p.instrs)
            for (PeId d : in.ctrlDests)
                dests.insert(static_cast<int>(d));
        if (dests.empty())
            continue;
        ControlRoute route;
        route.srcPort = static_cast<int>(p.pe);
        route.destPorts.assign(dests.begin(), dests.end());
        routes.push_back(std::move(route));
    }
    if (routes.empty())
        return true;

    // Destination sets may overlap between sources (two branches
    // configuring the same PE at different times).  The physical
    // network dedicates an output port per listener, so overlapping
    // sets are legal in hardware; our single-port-per-listener
    // model falls back to per-source sequential configurations,
    // which is equivalent because a PE's control input arbitrates
    // per cycle anyway.  Feasibility is what we check here.
    std::set<int> seen;
    bool overlapping = false;
    for (const ControlRoute &r : routes)
        for (int d : r.destPorts)
            if (!seen.insert(d).second)
                overlapping = true;
    if (overlapping) {
        // Validate each source individually against the fabric.
        for (const ControlRoute &r : routes) {
            if (!ctrlNet_.configure({r}))
                return false;
        }
        // Leave the last single-route configuration installed; the
        // transfer path below only uses the network datapath when a
        // joint configuration exists.
        return true;
    }
    return ctrlNet_.configure(routes);
}

void
MarionetteMachine::bootPes()
{
    // Controller boot: distribute entry configurations.  Each
    // configured PE observes its entry address at cycle 0 (the
    // controller drives the control network's controller port).
    for (const PeProgram &p : program_.pes) {
        if (p.entry != invalidInstr)
            pes_[static_cast<std::size_t>(p.pe)]->acceptControl(
                0, p.entry);
    }
}

void
MarionetteMachine::scheduleCtrl(Cycle now, const CtrlSend &send,
                                PeId src)
{
    // Peer-to-peer control: 1 cycle through the dedicated network.
    // Without the dedicated network the address rides the data mesh
    // (Fig. 4d: 6 cycles corner to corner) — the ablation of
    // Fig. 12.
    for (PeId dst : send.dests) {
        Cycles lat;
        if (config_.features.controlNetwork) {
            lat = ctrlNet_.latency();
        } else {
            // Mesh-routed control ablation: the address rides the
            // data mesh, so dead links detour it — or lose it when
            // the endpoints are disconnected (the watchdog turns
            // the loss into a structured deadlock).
            Cycles mesh_lat = mesh_.routedLatency(src, dst);
            if (mesh_lat == 0) {
                ++lostCtrlWords_;
                continue;
            }
            lat = std::max<Cycles>(mesh_lat,
                                   config_.controlNetLatency);
        }
        pendingCtrl_.schedule(now + lat,
                              PendingCtrl{dst, send.addr});
        statCtrlWords_.inc();
    }
}

void
MarionetteMachine::wake(PeId pe)
{
    if (peDead(pe))
        return;
    awake_[static_cast<std::size_t>(pe) / 64] |= std::uint64_t{1}
                                                   << (pe % 64);
}

PeId
MarionetteMachine::nextAwake(PeId from) const
{
    std::size_t w = static_cast<std::size_t>(from) / 64;
    if (w == awake_.size())
        return config_.numPes();
    std::uint64_t bits = awake_[w] & (~std::uint64_t{0} << (from % 64));
    while (bits == 0) {
        if (++w == awake_.size())
            return config_.numPes();
        bits = awake_[w];
    }
    return static_cast<PeId>(w * 64) + std::countr_zero(bits);
}

void
MarionetteMachine::wakeIfWaiting(PeId pe, WakeOn on, PeId at,
                                 int index)
{
    // A PE still awake may carry a stale wait; waking it again is a
    // no-op.
    const PeWait &w = pes_[static_cast<std::size_t>(pe)]->wait();
    if (w.on == on && w.pe == at && w.index == index)
        wake(pe);
}

RunResult
MarionetteMachine::run(Cycle max_cycles)
{
    MARIONETTE_ASSERT(loaded_, "run() before load()");
    RunResult result;

    // Graceful refusal: a program mapped onto a dead PE can only
    // wedge, so report the conflict instead of booting.  This is
    // also the retry loop's discovery signal — a fault-oblivious
    // compile learns which PE it must avoid from faultPe.
    for (const PeProgram &p : program_.pes) {
        if (peDead(p.pe)) {
            result.error = RunError::DeadPe;
            result.faultPe = p.pe;
            result.errorDetail = "program '" + program_.name +
                                 "' targets dead PE " +
                                 std::to_string(p.pe);
            result.outputs = outputs_;
            return result;
        }
    }
    bootPes();

    const bool event_driven = config_.eventDrivenSim;
    const Cycle grace = config_.dataNetLatency +
                        config_.executeLatency +
                        config_.configLatency + 8;
    const int num_pes = config_.numPes();
    Cycle idle_streak = 0;

    // Watchdog baselines: the mesh's drop counter is cumulative
    // across runs, so losses are measured as deltas from here.
    const std::uint64_t dropped_before = mesh_.droppedWords();
    const std::uint64_t lost_ctrl_before = lostCtrlWords_;
    // Fire counters are likewise cumulative across load()s on a
    // long-lived machine (the serving pool reuses one machine per
    // lane); the RunResult reports this run's firings only.
    std::uint64_t fires_before = 0;
    for (const auto &pe : pes_)
        fires_before += pe->fires();
    const Cycles watchdog = config_.watchdogCycles;
    Cycle last_progress = 0;
    auto fail = [&](RunError kind, std::string why) {
        if (result.error == RunError::None) {
            result.error = kind;
            result.errorDetail = std::move(why);
            result.stalledCycle = last_progress;
        }
    };

    // Scheduled transient upsets, applied in cycle order.
    std::vector<TransientFault> upsets = config_.faults.transients;
    std::stable_sort(upsets.begin(), upsets.end(),
                     [](const TransientFault &a,
                        const TransientFault &b) {
                         return a.cycle < b.cycle;
                     });
    std::size_t next_upset = 0;

    // Everyone starts on the worklist; PEs prove themselves idle.
    // Dead PEs never join it (wake() refuses them), on either path.
    std::fill(awake_.begin(), awake_.end(), 0);
    for (PeId p = 0; p < num_pes; ++p)
        wake(p);
    std::fill(lastTick_.begin(), lastTick_.end(), 0);
    timedWakes_.clear();
    std::uint64_t pe_ticks = 0;
    bool ran_any_cycle = false;

    for (now_ = 0; now_ < max_cycles; ++now_) {
        ran_any_cycle = true;
        bool progressed = false;
        scratchpad_->beginCycle();

        // Deliver data packets that arrive this cycle.
        mesh_.deliverArrivals(now_, [&](const MeshPacket &pkt) {
            pes_[static_cast<std::size_t>(pkt.dst)]->acceptData(
                pkt.channel, pkt.value);
            --meshInflight_[inflightSlot(pkt.dst, pkt.channel)];
            wakeIfWaiting(pkt.dst, WakeOn::Channel, pkt.dst,
                          pkt.channel);
            progressed = true;
        });

        // Deliver control words that arrive this cycle.
        pendingCtrl_.drain(now_, [&](const PendingCtrl &c) {
            pes_[static_cast<std::size_t>(c.dst)]->acceptControl(
                now_, c.addr);
            wake(c.dst);
            progressed = true;
        });

        // Apply FIFO pushes that arrive this cycle.
        pendingPush_.drain(now_, [&](const PendingPush &p) {
            ControlFifo &fifo =
                *fifos_[static_cast<std::size_t>(p.fifo)];
            if (!fifo.push(p.value)) {
                fail(RunError::Protocol,
                     "control FIFO " + std::to_string(p.fifo) +
                         " overflow (credit protocol violation)");
                return;
            }
            --fifoInflight_[static_cast<std::size_t>(p.fifo)];
            for (PeId q : poppers_[static_cast<std::size_t>(p.fifo)])
                wakeIfWaiting(q, WakeOn::FifoData, invalidPe, p.fifo);
            progressed = true;
        });

        // Sleepers whose own deadline (FU retire, loop II,
        // configuration apply) falls on this cycle.
        timedWakes_.drain(now_, [&](PeId q) {
            if (pes_[static_cast<std::size_t>(q)]->wait().until == now_)
                wake(q);
        });

        // Scheduled transient upsets land after deliveries and
        // before any PE ticks: a word arriving this very cycle is
        // corruptible, and both run paths see the same ordering.
        while (next_upset < upsets.size() &&
               upsets[next_upset].cycle == now_) {
            const TransientFault &t = upsets[next_upset++];
            if (peDead(t.pe))
                continue;
            pes_[static_cast<std::size_t>(t.pe)]->corruptChannel(
                t.channel, t.xorMask);
            stats_.stat("transient_upsets").inc();
            wake(t.pe);
        }

        // Tick the active worklist in PE-id order (id order is
        // architectural: it decides same-cycle arbitration for
        // scratchpad ports and FIFO pops).  nextAwake() reads the
        // bitset afresh after every tick, so a wake raised by PE p
        // for a higher-id PE q takes effect this very cycle — q is
        // reached later in this same sweep, exactly as in the
        // reference loop where q ticks after p unconditionally.
        for (PeId p = nextAwake(0); p < num_pes;
             p = nextAwake(p + 1)) {
            const std::size_t pi = static_cast<std::size_t>(p);
            Pe &pe = *pes_[pi];
            // Replay the stall statistics of the cycles this PE
            // slept through (its state was frozen, so each skipped
            // tick repeats the last real one).
            if (lastTick_[pi] + 1 < now_)
                pe.backfillIdle(now_ - 1 - lastTick_[pi]);
            pe.tick(now_, *this, tick_);
            lastTick_[pi] = now_;
            ++pe_ticks;
            const PeTickResult &r = tick_;
            // Sends sharing a group are one firing's fan-out: the
            // mesh forwards them as a single multicast word whose
            // route tree charges every shared link once.  Groups
            // are consecutive in dataSends; per-destination
            // validity checks stay exactly as on the unicast path
            // (the dead-PE fault is discovery mode's re-place
            // signal).
            for (std::size_t si = 0; si < r.dataSends.size();) {
                std::size_t group_end = si + 1;
                while (group_end < r.dataSends.size() &&
                       r.dataSends[group_end].group ==
                           r.dataSends[si].group)
                    ++group_end;
                multicastDests_.clear();
                for (std::size_t k = si; k < group_end; ++k) {
                    const DataSend &s = r.dataSends[k];
                    if (s.dstPe < 0 ||
                        s.dstPe >= config_.numPes()) {
                        fail(RunError::BadProgram,
                             "data send to out-of-range PE " +
                                 std::to_string(s.dstPe));
                        result.faultPe = pe.id();
                        continue;
                    }
                    if (peDead(s.dstPe)) {
                        fail(RunError::DeadPe,
                             "data send from PE " +
                                 std::to_string(pe.id()) +
                                 " to dead PE " +
                                 std::to_string(s.dstPe));
                        result.faultPe = s.dstPe;
                        continue;
                    }
                    multicastDests_.emplace_back(s.dstPe,
                                                 s.channel);
                }
                if (multicastDests_.size() == 1) {
                    // Unicast fast path (no route-tree union).
                    mesh_.send(now_, pe.id(),
                               multicastDests_.front().first,
                               r.dataSends[si].value,
                               multicastDests_.front().second);
                    progressed = true;
                } else if (!multicastDests_.empty()) {
                    mesh_.multicast(now_, pe.id(),
                                    multicastDests_,
                                    r.dataSends[si].value);
                    progressed = true;
                }
                si = group_end;
            }
            for (const auto &[fifo_id, value] : r.outputs) {
                if (fifo_id < 0 ||
                    fifo_id >= static_cast<int>(outputs_.size())) {
                    fail(RunError::BadProgram,
                         "output to bad FIFO " +
                             std::to_string(fifo_id));
                    result.faultPe = pe.id();
                    continue;
                }
                outputs_[static_cast<std::size_t>(fifo_id)]
                    .push_back(value);
                progressed = true;
            }
            for (const CtrlSend &s : r.ctrlSends) {
                scheduleCtrl(now_, s, pe.id());
                progressed = true;
            }
            for (const FifoPush &push : r.fifoPushes) {
                if (push.fifo < 0 ||
                    push.fifo >= config_.controlFifoCount) {
                    fail(RunError::BadProgram,
                         "push to bad FIFO " +
                             std::to_string(push.fifo));
                    result.faultPe = pe.id();
                    continue;
                }
                pendingPush_.schedule(
                    now_ + ctrlNet_.latency(),
                    PendingPush{push.fifo, push.value});
                progressed = true;
            }
            // A pop frees one credit of that channel: wake the
            // producers sleeping on it.
            for (unsigned popped = r.poppedChannels; popped != 0;
                 popped &= popped - 1)
                for (PeId q : producers_[pi])
                    wakeIfWaiting(q, WakeOn::Credit, p,
                                  std::countr_zero(popped));
            if (r.progressed)
                progressed = true;
            if (event_driven && pe.wait().on != WakeOn::Tick) {
                // Every later tick would fail at the gate the wait
                // names until its event or deadline: sleep until
                // then.
                awake_[pi / 64] &= ~(std::uint64_t{1} << (pi % 64));
                if (pe.wait().until != neverCycle)
                    timedWakes_.schedule(pe.wait().until, p);
            }
        }

        // A structured failure ends the run at the cycle boundary.
        if (result.error != RunError::None)
            break;

        // Quiescence needs both silence *and* empty networks: a
        // word still in flight (a long mesh route can exceed the
        // grace window) will make progress when it lands, so the
        // idle streak must not run out underneath it.
        if (progressed)
            last_progress = now_;
        bool in_flight = mesh_.inFlight() > 0 ||
                         pendingCtrl_.size() > 0 ||
                         pendingPush_.size() > 0;
        if (progressed || in_flight) {
            idle_streak = 0;
            // Watchdog: work claimed or in flight but nothing
            // moving for longer than any in-fabric latency can
            // explain means the fabric is wedged — terminate with
            // a diagnosis instead of spinning to the cycle limit.
            if (!progressed && watchdog != 0 &&
                now_ - last_progress >= watchdog) {
                std::ostringstream why;
                why << (mesh_.inFlight() + pendingCtrl_.size() +
                        pendingPush_.size())
                    << " word(s) in flight but no forward "
                       "progress since cycle " << last_progress;
                fail(RunError::Deadlock, why.str());
                break;
            }
        } else if (++idle_streak >= grace) {
            // The fabric is silent.  Before declaring success, the
            // watchdog checks the silence is healthy: no words were
            // lost on dead links, and no loop generator is stranded
            // mid-iteration (it would still be producing if its
            // operands could reach it).
            const std::uint64_t lost =
                (mesh_.droppedWords() - dropped_before) +
                (lostCtrlWords_ - lost_ctrl_before);
            PeId stranded = invalidPe;
            for (const PeProgram &p : program_.pes) {
                if (pes_[static_cast<std::size_t>(p.pe)]
                        ->midLoop()) {
                    stranded = p.pe;
                    break;
                }
            }
            if (lost > 0) {
                std::ostringstream why;
                why << lost << " word(s) lost on dead links (last "
                    << mesh_.lastDropSrc() << " -> "
                    << mesh_.lastDropDst()
                    << "); fabric silent since cycle "
                    << last_progress;
                fail(RunError::Deadlock, why.str());
                result.faultPe = stranded;
                result.faultLinkSrc = mesh_.lastDropSrc();
                result.faultLinkDst = mesh_.lastDropDst();
            } else if (stranded != invalidPe) {
                std::ostringstream why;
                why << "loop on PE " << stranded
                    << " stranded mid-iteration at quiescence "
                       "(silent since cycle " << last_progress
                    << ")";
                fail(RunError::Deadlock, why.str());
                result.faultPe = stranded;
            } else {
                result.finished = true;
            }
            break;
        }
    }

    // PEs that missed ticks up to the final simulated cycle settle
    // their books so stat dumps match the reference loop.  This
    // includes PEs woken during the final cycle's sweep after their
    // own slot had passed (awake again, but never ticked): their
    // state stayed frozen through the cutoff, so the same replay
    // applies.  PEs that ticked in the final cycle have
    // lastTick_ == last_cycle and backfill zero.
    if (ran_any_cycle) {
        // The last simulated cycle is now_ when the loop broke
        // early (quiescence or a structured failure) and
        // max_cycles - 1 when the budget ran out.
        const Cycle last_cycle =
            now_ < max_cycles ? now_ : max_cycles - 1;
        for (PeId p = 0; p < num_pes; ++p) {
            const std::size_t pi = static_cast<std::size_t>(p);
            if (peDead(p))
                continue;
            if (lastTick_[pi] < last_cycle)
                pes_[pi]->backfillIdle(last_cycle - lastTick_[pi]);
        }
    }

    if (!result.finished && result.error == RunError::None) {
        std::ostringstream why;
        why << "cycle limit " << max_cycles
            << " reached before quiescence";
        fail(RunError::CycleLimit, why.str());
    }

    // Report the last productive cycle, excluding the idle grace
    // window used for quiescence detection.  A watchdog-terminated
    // run reports the cycles it actually simulated — bounded, never
    // the untouched remainder of the budget.
    if (result.finished)
        result.cycles = now_ + 1 - idle_streak;
    else if (now_ < max_cycles)
        result.cycles = now_ + 1;
    else
        result.cycles = max_cycles;
    result.outputs = outputs_;
    result.peTicks = pe_ticks;
    for (const auto &pe : pes_)
        result.totalFires += pe->fires();
    result.totalFires -= fires_before;
    if (result.cycles > 0) {
        result.peUtilization =
            static_cast<double>(result.totalFires) /
            (static_cast<double>(config_.numPes()) *
             static_cast<double>(result.cycles));
    }
    statCycles_.set(result.cycles);
    statTotalFires_.set(result.totalFires);
    return result;
}

MachineSnapshot
MarionetteMachine::snapshot() const
{
    MARIONETTE_ASSERT(loaded_, "snapshot() before load()");
    Snapshot s;
    s.configHash = configHash(config_);
    s.program = program_;
    s.now = now_;
    s.lostCtrlWords = lostCtrlWords_;
    s.ctrlDrained = pendingCtrl_.drained();
    s.ctrlEvents = pendingCtrl_.snapshotEvents();
    s.pushDrained = pendingPush_.drained();
    s.pushEvents = pendingPush_.snapshotEvents();
    s.meshInflight = meshInflight_;
    s.fifoInflight = fifoInflight_;
    s.outputs = outputs_;
    s.pes.reserve(pes_.size());
    for (const auto &pe : pes_)
        s.pes.push_back(pe->saveState());
    s.mesh = mesh_.saveState();
    s.scratchpadWords = scratchpad_->words();
    s.scratchpadStats = scratchpad_->saveStats();
    s.fifoContents.reserve(fifos_.size());
    s.fifoStats.reserve(fifos_.size());
    for (const auto &fifo : fifos_) {
        s.fifoContents.push_back(fifo->contents());
        s.fifoStats.push_back(fifo->saveStats());
    }
    s.machineStats = stats_.captureState();
    s.ctrlNetStats = ctrlNet_.saveStats();
    return s;
}

void
MarionetteMachine::restore(const Snapshot &s)
{
    MARIONETTE_ASSERT(s.configHash == configHash(config_),
                      "snapshot restored onto a differently-"
                      "configured machine");
    MARIONETTE_ASSERT(s.pes.size() == pes_.size() &&
                          s.fifoContents.size() == fifos_.size() &&
                          s.fifoStats.size() == fifos_.size(),
                      "snapshot shape mismatch");
    program_ = s.program;
    loaded_ = true;
    now_ = s.now;
    lostCtrlWords_ = s.lostCtrlWords;
    pendingCtrl_.restoreEvents(s.ctrlDrained, s.ctrlEvents);
    pendingPush_.restoreEvents(s.pushDrained, s.pushEvents);
    meshInflight_ = s.meshInflight;
    fifoInflight_ = s.fifoInflight;
    outputs_ = s.outputs;
    for (std::size_t i = 0; i < pes_.size(); ++i)
        pes_[i]->restoreState(s.pes[i]);
    mesh_.restoreState(s.mesh);
    scratchpad_->restoreState(s.scratchpadWords,
                              s.scratchpadStats);
    for (std::size_t i = 0; i < fifos_.size(); ++i)
        fifos_[i]->restoreState(s.fifoContents[i], s.fifoStats[i]);
    stats_.restoreState(s.machineStats);
    buildWakeLists();
    if (config_.features.controlNetwork) {
        // Re-derive the switch state, then restore the captured
        // statistics — undoing the configuration counter the re-run
        // just bumped.
        if (!configureControlNetwork(program_))
            MARIONETTE_FATAL("kernel '%s' exceeds control network "
                             "capacity on restore",
                             program_.name.c_str());
    }
    ctrlNet_.restoreStats(s.ctrlNetStats);
}

std::string
MarionetteMachine::renderAllStats() const
{
    std::vector<const StatGroup *> groups;
    groups.push_back(&stats_);
    for (const auto &pe : pes_)
        groups.push_back(&pe->stats());
    groups.push_back(&mesh_.stats());
    groups.push_back(&ctrlNet_.stats());
    groups.push_back(&scratchpad_->stats());
    for (const auto &fifo : fifos_)
        groups.push_back(&fifo->stats());
    return renderStats(groups);
}

void
MarionetteMachine::resetStats()
{
    stats_.resetAll();
    for (const auto &pe : pes_)
        pe->stats().resetAll();
    mesh_.resetStats();
    ctrlNet_.resetStats();
    scratchpad_->resetStats();
    for (const auto &fifo : fifos_)
        fifo->resetStats();
}

CongestionReport
MarionetteMachine::congestion() const
{
    CongestionReport report;
    report.packets = mesh_.stats().value("packets");
    report.hopTraversals = mesh_.stats().value("hop_traversals");
    report.maxLinkLoad = mesh_.stats().value("max_link_load");
    if (report.packets > 0)
        report.meanHops =
            static_cast<double>(report.hopTraversals) /
            static_cast<double>(report.packets);
    for (const auto &pe : pes_) {
        const StatGroup &s = pe->stats();
        report.stallOperand += s.value("stall_operand");
        report.stallCredit += s.value("stall_credit");
        report.stallMem += s.value("stall_mem");
        report.stallGate += s.value("stall_gate");
    }
    return report;
}

void
MarionetteMachine::injectData(PeId pe, int channel, Word value)
{
    MARIONETTE_ASSERT(loaded_, "injectData before load()");
    MARIONETTE_ASSERT(pe >= 0 && pe < config_.numPes(),
                      "injectData to bad PE %d", pe);
    pes_[static_cast<std::size_t>(pe)]->acceptData(channel, value);
}

ControlFifo &
MarionetteMachine::controlFifo(int i)
{
    MARIONETTE_ASSERT(i >= 0 && i < config_.controlFifoCount,
                      "bad FIFO index %d", i);
    return *fifos_[static_cast<std::size_t>(i)];
}

const Pe &
MarionetteMachine::pe(PeId id) const
{
    MARIONETTE_ASSERT(id >= 0 && id < config_.numPes(),
                      "bad PE id %d", id);
    return *pes_[static_cast<std::size_t>(id)];
}

const StatGroup &
MarionetteMachine::peStats(PeId pe) const
{
    MARIONETTE_ASSERT(pe >= 0 && pe < config_.numPes(),
                      "bad PE id %d", pe);
    return pes_[static_cast<std::size_t>(pe)]->stats();
}

bool
MarionetteMachine::dataCredit(PeId dst, int channel)
{
    if (dst < 0 || dst >= config_.numPes())
        return false;
    int space = pes_[static_cast<std::size_t>(dst)]->channelSpace(
        channel);
    return space - meshInflight_[inflightSlot(dst, channel)] > 0;
}

void
MarionetteMachine::claimDataCredit(PeId dst, int channel)
{
    MARIONETTE_ASSERT(dst >= 0 && dst < config_.numPes(),
                      "claim for bad PE %d", dst);
    ++meshInflight_[inflightSlot(dst, channel)];
}

bool
MarionetteMachine::memPortAvailable(Word addr)
{
    return scratchpad_->tryAccess(addr);
}

Word
MarionetteMachine::memRead(Word addr)
{
    return scratchpad_->read(addr);
}

void
MarionetteMachine::memWrite(Word addr, Word value)
{
    scratchpad_->write(addr, value);
}

bool
MarionetteMachine::fifoHasData(int fifo)
{
    MARIONETTE_ASSERT(fifo >= 0 && fifo < config_.controlFifoCount,
                      "bad FIFO %d", fifo);
    return !fifos_[static_cast<std::size_t>(fifo)]->empty();
}

Word
MarionetteMachine::fifoPop(int fifo)
{
    // The pop frees a slot a pusher may sleep on.
    for (PeId q : pushers_[static_cast<std::size_t>(fifo)])
        wakeIfWaiting(q, WakeOn::FifoSpace, invalidPe, fifo);
    return fifos_[static_cast<std::size_t>(fifo)]->pop();
}

bool
MarionetteMachine::fifoHasSpace(int fifo)
{
    MARIONETTE_ASSERT(fifo >= 0 && fifo < config_.controlFifoCount,
                      "bad FIFO %d", fifo);
    const ControlFifo &f = *fifos_[static_cast<std::size_t>(fifo)];
    return f.occupancy() +
               fifoInflight_[static_cast<std::size_t>(fifo)] <
           f.depth();
}

void
MarionetteMachine::claimFifoSlot(int fifo)
{
    MARIONETTE_ASSERT(fifo >= 0 && fifo < config_.controlFifoCount,
                      "bad FIFO %d", fifo);
    ++fifoInflight_[static_cast<std::size_t>(fifo)];
}

} // namespace marionette

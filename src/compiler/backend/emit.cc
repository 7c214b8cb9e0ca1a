/**
 * @file
 * The emit pass: binary construction from a placed-and-routed
 * mapping.
 *
 * Placement decisions live in backend/placement.cc and the derived
 * timing in backend/route.cc; this pass only materializes the
 * Program: per-PE instructions, operand/destination wiring and boot
 * seeds (both from the placed netlist), observation taps, the
 * serial-phase control chain (with the route plan's drain bounds),
 * and the capacity checks a bitstream generator owns (instruction
 * memory, scratchpad extent).
 */

#include <algorithm>
#include <sstream>

#include "compiler/pipeline.h"
#include "compiler/program_builder.h"
#include "isa/encoding.h"

namespace marionette
{

// ------------------------------------------------------------------
// Pass 9: emit
// ------------------------------------------------------------------

bool
passEmit(Compilation &cc)
{
    const MachineConfig &config = cc.config;
    CompiledKernel &out = *cc.out;
    const Mapping &map = cc.mapping;

    const int spad_words =
        config.scratchpadBytes / static_cast<int>(sizeof(Word));
    Word mem_extent =
        static_cast<Word>(cc.spec.memoryImage.size());
    for (const MemoryRegionCheck &c : cc.spec.expectedMemory)
        mem_extent = std::max<Word>(
            mem_extent,
            c.base + static_cast<Word>(c.expect.size()));
    // The kernel's window: [memoryBase, memoryBase + memoryWords)
    // when capped, [memoryBase, scratchpad top) otherwise.  The
    // static footprint must fit the window — a co-tenant kernel
    // that spilled past its window would silently corrupt a
    // neighbour's data.
    const Word window_top =
        cc.options.memoryWords > 0
            ? cc.options.memoryBase + cc.options.memoryWords
            : static_cast<Word>(spad_words);
    if (mem_extent > window_top - cc.options.memoryBase ||
        window_top > spad_words) {
        std::ostringstream why;
        why << "kernel addresses " << mem_extent
            << " scratchpad words, its window at "
            << cc.options.memoryBase << " holds "
            << window_top - cc.options.memoryBase << " (of "
            << spad_words << " total)";
        return cc.fail(kPassEmit, why.str());
    }

    ProgramBuilder builder(cc.workload.name() + ".compiled",
                           config);
    // One FIFO per observation: an unrolled phase splits each
    // observed port into one tap per replica (lower.cc assembled
    // the matching golden streams in cc.goldenOutputs).
    builder.setNumOutputs(std::max<int>(
        1, static_cast<int>(cc.observations.size())));

    // Operands read their slot's channel; the netlist wires each
    // channel's producer (generator, upstream node or carried final)
    // and holds a closing channel's boot words.
    auto operand = [](const Operand &src, int slot) {
        if (src.kind == OperandKind::None)
            return OperandSel::none();
        if (src.kind == OperandKind::Immediate)
            return OperandSel::immediate(src.ref);
        return OperandSel::channel(slot);
    };
    for (std::size_t p = 0; p < cc.phases.size(); ++p) {
        const FlatPhase &phase = cc.phases[p];
        const PlacedPhase &placed = map.phases[p];
        PeId gen_pe = placed.generator;
        Instruction &gen = builder.place(gen_pe, 0);
        gen.mode = SenderMode::LoopOp;
        gen.op = Opcode::Loop;
        gen.loopStart = 0;
        gen.loopBound = phase.trips;
        gen.loopStep = 1;
        gen.pipelineII = 1;
        if (p == 0)
            builder.setEntry(gen_pe, 0);

        for (const DfgNode &n : phase.body.nodes()) {
            if (!phase.liveNodes.count(n.id))
                continue;
            PeId pe = placed.peOf.at(n.id);
            Instruction &in = builder.place(pe, 0);
            in.mode = SenderMode::Dfg;
            in.op = n.op;
            auto base = phase.memBase.find(n.id);
            if (base != phase.memBase.end())
                in.memBase = base->second;
            in.a = operand(n.a, 0);
            in.b = operand(n.b, 1);
            in.c = operand(n.c, 2);
            builder.setEntry(pe, 0);
        }
        for (const DataEdge &e : placed.edges) {
            const PeId src = e.src == invalidNode
                                 ? gen_pe
                                 : placed.peOf.at(e.src);
            const PeId dst = placed.peOf.at(e.dst);
            builder.place(src, 0).dests.push_back(
                DestSel::toPe(dst, e.channel));
            for (Cycles w = 0; w < e.bootWords; ++w)
                out.boots.push_back(
                    BootInjection{dst, e.channel, e.bootWord});
        }

        for (const Observation &ob : cc.observations) {
            if (ob.phase != static_cast<int>(p))
                continue;
            builder.place(placed.peOf.at(ob.node), 0)
                .dests.push_back(DestSel::toOutput(ob.fifo));
        }
    }

    // Serial phases chain through loop-exit control emissions via a
    // drain loop: the finished phase's generator configures a
    // destination-less generator that idles long enough for every
    // in-flight store to land, then configures the next phase.  The
    // drain length comes from the route plan's pipeline-flush bound
    // instead of the old all-operators-serialize guess.
    for (std::size_t p = 0; p + 1 < cc.phases.size(); ++p) {
        PeId drain_pe = map.drainPes[p];
        Instruction &gen =
            builder.place(map.phases[p].generator, 0);
        gen.loopExitAddr = 0;
        gen.ctrlDests = {drain_pe};
        Instruction &dr = builder.place(drain_pe, 0);
        dr.mode = SenderMode::LoopOp;
        dr.op = Opcode::Loop;
        dr.loopStart = 0;
        dr.loopBound = cc.routes.drainCycles[p];
        dr.loopStep = 1;
        dr.pipelineII = 1;
        dr.loopExitAddr = 0;
        dr.ctrlDests = {map.phases[p + 1].generator};
    }

    out.program = builder.finish();

    // The controller's instruction scratchpad must hold the
    // encoded configuration (machine.load() enforces the same).
    std::size_t config_bytes =
        encodeProgram(out.program).size() * sizeof(std::uint32_t);
    if (config_bytes >
        static_cast<std::size_t>(config.instrMemBytes)) {
        std::ostringstream why;
        why << "configuration needs " << config_bytes
            << " bytes of instruction memory, the machine has "
            << config.instrMemBytes;
        return cc.fail(kPassEmit, why.str());
    }

    out.workload = cc.workload.name();
    out.memoryImage = cc.spec.memoryImage;
    out.memoryImageBase = cc.options.memoryBase;
    out.expectedOutputs = cc.goldenOutputs;
    out.memoryChecks = cc.spec.expectedMemory;
    // The golden final-memory regions live inside the relocated
    // window (lower shifted every Load/Store base the same way).
    for (MemoryRegionCheck &check : out.memoryChecks)
        check.base += cc.options.memoryBase;

    // Generous cycle budget: full serialization of every operator
    // per iteration plus latency slack; the machine quiesces long
    // before this on any healthy program.
    Cycle budget = 100'000;
    for (const FlatPhase &phase : cc.phases)
        budget += static_cast<Cycle>(phase.trips) *
                      (3u * (static_cast<Cycle>(
                                 phase.liveNodes.size()) +
                             2u) +
                       16u) +
                  64 + 16 * static_cast<Cycle>(
                                phase.liveNodes.size());
    for (Cycles d : cc.routes.drainCycles)
        budget += d + 64;
    out.cycleBudget = budget;

    std::ostringstream note;
    note << "emitted " << map.pesUsed << "/" << config.numPes()
         << " PEs (" << map.nonlinearUsed << " nonlinear), "
         << out.program.numOutputs << " output FIFO(s), "
         << config_bytes << " config bytes, " << out.boots.size()
         << " boot seed(s)";
    cc.report.note(kPassEmit, note.str());
    return true;
}

} // namespace marionette

/**
 * @file
 * The Marionette ISA (paper Sec. 4.1: "a corresponding ISA that
 * enables independent control flow handling").
 *
 * Every PE holds an instruction buffer indexed by *instruction
 * address*; control flow between PEs is the transfer of instruction
 * addresses (Sec. 4.1: "the control flow is represented by
 * instruction addresses, and the PE generates and sends new
 * instruction addresses to other PEs").  A cluster of PEs running on
 * one address realizes one basic block.
 *
 * One instruction bundles:
 *  - the data flow configuration (FU opcode, operand selects, data
 *    destinations) executed by the data flow part, and
 *  - the control flow configuration (sender mode, emitted addresses,
 *    control destinations, loop/FIFO bindings) executed by the
 *    control flow part.
 * The two halves run on decoupled state machines — the architectural
 * property the whole paper is about.
 */

#ifndef MARIONETTE_ISA_INSTRUCTION_H
#define MARIONETTE_ISA_INSTRUCTION_H

#include <string>
#include <vector>

#include "ir/op.h"
#include "sim/types.h"

namespace marionette
{

/** Control Flow Sender operating mode (paper Fig. 7a). */
enum class SenderMode : std::uint8_t
{
    Idle,      ///< PE unconfigured / parked.
    Dfg,       ///< DFG operator: proactive emit of the next address.
    BranchOp,  ///< Branch operator: address chosen by the predicate.
    LoopOp     ///< Loop operator: retained configuration, generates
               ///< the iteration stream.
};

/** Where a data operand comes from. */
struct OperandSel
{
    enum class Kind : std::uint8_t
    {
        None,
        Channel,  ///< Input channel (latency-insensitive port).
        Reg,      ///< Local register.
        Imm       ///< Immediate baked into the instruction.
    };

    Kind kind = Kind::None;
    std::int8_t index = 0; ///< channel or register index.
    Word imm = 0;

    static OperandSel none() { return {}; }
    static OperandSel channel(int i)
    { return {Kind::Channel, static_cast<std::int8_t>(i), 0}; }
    static OperandSel reg(int i)
    { return {Kind::Reg, static_cast<std::int8_t>(i), 0}; }
    static OperandSel immediate(Word v)
    { return {Kind::Imm, 0, v}; }

    bool operator==(const OperandSel &) const = default;
};

/** Where an FU result goes. */
struct DestSel
{
    enum class Kind : std::uint8_t
    {
        None,
        PeChannel,  ///< Another PE's input channel via the mesh.
        LocalReg,   ///< This PE's register file.
        OutputFifo  ///< Machine-level result collection FIFO.
    };

    Kind kind = Kind::None;
    PeId pe = invalidPe;      ///< for PeChannel.
    std::int8_t channel = 0;  ///< channel / register / fifo index.

    static DestSel toPe(PeId pe, int channel)
    {
        return {Kind::PeChannel, pe,
                static_cast<std::int8_t>(channel)};
    }
    static DestSel toReg(int reg)
    {
        return {Kind::LocalReg, invalidPe,
                static_cast<std::int8_t>(reg)};
    }
    static DestSel toOutput(int fifo)
    {
        return {Kind::OutputFifo, invalidPe,
                static_cast<std::int8_t>(fifo)};
    }

    bool operator==(const DestSel &) const = default;
};

/** One entry of a PE instruction buffer. */
struct Instruction
{
    /** Sender mode of the control flow part. */
    SenderMode mode = SenderMode::Idle;

    /** FU opcode of the data flow part. */
    Opcode op = Opcode::Nop;

    OperandSel a;
    OperandSel b;
    OperandSel c;

    /** Base offset added to memory addresses (Load/Store). */
    Word memBase = 0;

    /** Data destinations of the FU result. */
    std::vector<DestSel> dests;

    /**
     * Channels popped-and-discarded on fire beyond the operands.
     * Used when two branch paths are merged onto one PE (Fig. 7b):
     * the active configuration consumes the inactive path's operands
     * to keep the channels synchronized across iterations.
     */
    std::vector<std::int8_t> alsoPop;

    // ---- Control flow part configuration ----

    /** PEs whose control input this PE drives. */
    std::vector<PeId> ctrlDests;

    /**
     * Dfg mode: address proactively emitted to ctrlDests as soon as
     * this PE (re)configures — the Proactive PE Configuration
     * feature (Sec. 4.2).
     */
    InstrAddr emitAddr = invalidInstr;

    /** BranchOp mode: address sent when the predicate is true. */
    InstrAddr takenAddr = invalidInstr;
    /** BranchOp mode: address sent when the predicate is false. */
    InstrAddr notTakenAddr = invalidInstr;

    // ---- LoopOp mode configuration ----

    /** Initial induction value (unless startFifo >= 0). */
    Word loopStart = 0;
    /** Induction increment per iteration. */
    Word loopStep = 1;
    /** Loop bound (exclusive) unless boundFifo >= 0. */
    Word loopBound = 0;
    /** Control FIFO supplying per-round start values; -1 = none. */
    int startFifo = -1;
    /** Control FIFO supplying per-round bounds; -1 = none. */
    int boundFifo = -1;
    /** Pipeline initiation interval of the generated stream. */
    int pipelineII = 1;
    /** Address emitted to ctrlDests when a loop round ends. */
    InstrAddr loopExitAddr = invalidInstr;

    /**
     * Control FIFO this PE pushes its control result into (outer
     * blocks feeding inner loop generators, Sec. 4.3); -1 = none.
     */
    int pushFifo = -1;

    /**
     * Lockstep gating for branch-target PEs (Fig. 7b): when true,
     * the data flow part fires at most once per control word
     * received, pairing the k-th upstream decision with the k-th
     * datum even when data arrives early.  Sustained same-address
     * words still grant a firing credit without reconfiguration.
     */
    bool ctrlGated = false;

    bool operator==(const Instruction &) const = default;
};

/** Everything one PE needs loaded before a kernel runs. */
struct PeProgram
{
    PeId pe = invalidPe;
    /** Instruction buffer; index = instruction address. */
    std::vector<Instruction> instrs;
    /** Address the controller configures at kernel start;
     *  invalidInstr leaves the PE idle until peers configure it. */
    InstrAddr entry = invalidInstr;
};

/** A complete compiled kernel. */
struct Program
{
    std::string name;
    std::vector<PeProgram> pes;
    /** Number of instruction addresses used (buffer occupancy). */
    int numAddrs = 0;
    /** Output FIFO count the kernel writes. */
    int numOutputs = 0;

    /** Find the program of @p pe; nullptr when the PE is unused. */
    const PeProgram *forPe(PeId pe) const;

    /** Textual disassembly of the whole program. */
    std::string disassemble() const;
};

/** Mnemonic for a sender mode. */
std::string_view senderModeName(SenderMode mode);

/** One-line disassembly of a single instruction. */
std::string disassemble(const Instruction &instr);

} // namespace marionette

#endif // MARIONETTE_ISA_INSTRUCTION_H

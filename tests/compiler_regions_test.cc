/**
 * @file
 * Middle-end tests: the region-tree structure pass, the PassManager
 * plumbing, the guarded-exit while lowering, the predicated memory
 * operations the gated lowering relies on, and the golden
 * one-line diagnostics of every still-rejected Table-5 workload —
 * a diagnostic regression (or a silent coverage change) fails here.
 */

#include <gtest/gtest.h>

#include <array>
#include <functional>

#include "arch/machine.h"
#include "compiler/compiler.h"
#include "compiler/program_builder.h"
#include "ir/builder.h"
#include "pe/channel.h"
#include "workloads/workload.h"

namespace marionette
{
namespace
{

std::string
structureNote(const CompileReport &report)
{
    for (const CompilerPassNote &n : report.notes)
        if (n.pass == "structure")
            return n.message;
    return {};
}

// ------------------------------------------------------------------
// Golden diagnostics: the exact one-line rejection message of every
// workload the compiler still rejects.  If a kernel starts (or
// stops) compiling, or a pass re-words its reason, this fails and
// the expectation must be updated deliberately.
// ------------------------------------------------------------------

TEST(GoldenDiagnostics, StillRejectedWorkloads)
{
    Compiler compiler(evalFabric());

    struct Expectation
    {
        const char *kernel;
        const char *pass;
        const char *reason;
    };
    const Expectation expected[] = {
        {"MS", "structure",
         "loop 'pair_loop' is not a counted loop (header computes "
         "more than the counted-loop pattern)"},
        // FFT clears the predicate pass now that the bit-reverse
        // skip path defines 'vi'; the frontier moved to the group
        // loop's data-dependent stride (i += len).
        {"FFT", "structure",
         "loop 'group_loop' is not a counted loop (induction step "
         "is not a compile-time constant)"},
    };
    std::set<std::string> rejected;
    for (const Expectation &e : expected)
        rejected.insert(e.kernel);

    for (const Expectation &e : expected) {
        CompileResult r = compiler.compile(e.kernel);
        ASSERT_FALSE(r.ok()) << e.kernel;
        EXPECT_EQ(r.report.failedPass, e.pass) << e.kernel;
        EXPECT_EQ(r.report.reason, e.reason) << e.kernel;
    }

    // Exactly these two reject; everything else compiles.
    for (const Workload *w : allWorkloads()) {
        CompileResult r = compiler.compile(*w);
        EXPECT_EQ(r.ok(), rejected.count(w->name()) == 0)
            << w->name() << "\n" << r.report.toString();
    }
}

// ------------------------------------------------------------------
// CompileReport: the first failure latches, later failures are
// recorded as notes instead of silently dropped.
// ------------------------------------------------------------------

TEST(CompileReport, LaterFailuresBecomeNotes)
{
    CompileReport report;
    report.fail("bind", "no trip-count data for loop 'a'");
    report.fail("bind", "no trip-count data for loop 'b'");
    report.fail("lower", "unrelated");
    EXPECT_EQ(report.failedPass, "bind");
    EXPECT_EQ(report.reason, "no trip-count data for loop 'a'");
    ASSERT_EQ(report.notes.size(), 2u);
    EXPECT_EQ(report.notes[0].message,
              "also rejected: no trip-count data for loop 'b'");
    EXPECT_EQ(report.notes[1].pass, "lower");
}

TEST(CompileReport, BindReportsEveryMissingBound)
{
    // VI without machine data hits bind once per unresolved loop;
    // with data but one bound removed it must name that loop.  The
    // multi-failure path is exercised through a workload stub.
    class Missing : public Workload
    {
      public:
        std::string name() const override { return "missing"; }
        std::string fullName() const override { return "missing"; }
        std::string sizeDesc() const override { return "-"; }
        Cdfg
        buildCdfg() const override
        {
            CdfgBuilder b("missing");
            BlockId l1 = b.addLoopHeader("first_loop");
            BlockId b1 = b.addBlock("body1");
            BlockId l2 = b.addLoopHeader("second_loop");
            BlockId b2 = b.addBlock("body2");
            BlockId done = b.addBlock("done");
            for (BlockId hdr : {l1, l2})
                dfg_patterns::addCountedLoop(b.dfg(hdr), 0, 1,
                                             "n");
            for (BlockId body : {b1, b2}) {
                Dfg &d = b.dfg(body);
                int i = d.addInput("i");
                NodeId st = d.addNode(Opcode::Store,
                                      Operand::input(i),
                                      Operand::input(i));
                (void)st;
                d.addOutput("x", d.addNode(Opcode::Copy,
                                           Operand::input(i)));
            }
            Dfg &dd = b.dfg(done);
            int x = dd.addInput("x");
            dd.addOutput("x",
                         dd.addNode(Opcode::Copy,
                                    Operand::input(x)));
            b.fall(l1, b1);
            b.loopBack(b1, l1);
            b.loopExit(l1, l2);
            b.fall(l2, b2);
            b.loopBack(b2, l2);
            b.loopExit(l2, done);
            return b.finish();
        }
        WorkloadMachineSpec
        machineSpec() const override
        {
            WorkloadMachineSpec spec;
            spec.available = true; // ...but no loop bounds at all.
            return spec;
        }
        std::uint64_t
        runGolden(KernelRecorder &rec) const override
        {
            rec.block(0);
            return 0;
        }
    };

    CompileResult r = Compiler(evalFabric()).compile(Missing());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.report.failedPass, "bind");
    EXPECT_EQ(r.report.reason,
              "no trip-count data for loop 'first_loop'");
    bool second_noted = false;
    for (const CompilerPassNote &n : r.report.notes)
        if (n.message.find("second_loop") != std::string::npos)
            second_noted = true;
    EXPECT_TRUE(second_noted)
        << "second missing bound silently dropped";
}

// ------------------------------------------------------------------
// PassManager: per-pass timing lands in the report.
// ------------------------------------------------------------------

TEST(PassManager, TimingNoteListsEveryPass)
{
    CompileResult r = Compiler(evalFabric()).compile("CRC");
    ASSERT_TRUE(r.ok());
    std::string timings;
    for (const CompilerPassNote &n : r.report.notes)
        if (n.pass == "timings")
            timings = n.message;
    for (const char *pass : {"analyze", "predicate", "structure",
                             "assign", "bind", "lower", "place",
                             "route", "emit"})
        EXPECT_NE(timings.find(pass), std::string::npos) << pass;
}

// ------------------------------------------------------------------
// Structure pass: region shapes visible through the report.
// ------------------------------------------------------------------

TEST(RegionStructure, SiblingLoopsAndCondsAreStructured)
{
    Compiler compiler(evalFabric());
    // LDPC: sibling counted loops in sequence at two levels.
    CompileResult ldpc = compiler.compile("LDPC");
    ASSERT_TRUE(ldpc.ok()) << ldpc.report.toString();
    std::string note = structureNote(ldpc.report);
    EXPECT_NE(note.find("counted 'scan_loop'"), std::string::npos)
        << note;
    EXPECT_NE(note.find("counted 'write_loop'"), std::string::npos)
        << note;
    EXPECT_NE(note.find("counted 'var_loop'"), std::string::npos)
        << note;

    // HT: the theta loop hangs under an if-converted branch.
    CompileResult ht = compiler.compile("HT");
    ASSERT_TRUE(ht.ok()) << ht.report.toString();
    note = structureNote(ht.report);
    EXPECT_NE(note.find("cond 'pixel_if'"), std::string::npos)
        << note;
    EXPECT_NE(note.find("counted 'theta_loop'"), std::string::npos)
        << note;
}

// ------------------------------------------------------------------
// While-form loops: guarded-exit lowering, end to end.
// ------------------------------------------------------------------

/** Segmented sum with a data-dependent inner while loop (the rd[]
 *  idiom of the SPMV example, shrunk to unit-test size). */
class WhileWorkload : public Workload
{
  public:
    std::string name() const override { return "while_sum"; }
    std::string fullName() const override { return "while_sum"; }
    std::string sizeDesc() const override { return "4 rows"; }

    static constexpr int kRows = 4;
    static constexpr int kCap = 4;
    // rd = {0, 2, 3, 3, 6}: rows of 2, 1, 0, 3 elements.
    std::vector<Word> rd() const { return {0, 2, 3, 3, 6}; }
    std::vector<Word> val() const { return {5, -2, 7, 1, 1, 9}; }

    Cdfg
    buildCdfg() const override
    {
        CdfgBuilder b("while_sum");
        BlockId outer = b.addLoopHeader("row_loop");
        BlockId bounds = b.addBlock("bounds");
        BlockId inner = b.addLoopHeader("w_loop");
        BlockId body = b.addBlock("body");
        BlockId latch = b.addBlock("latch");
        BlockId done = b.addBlock("done");
        dfg_patterns::addCountedLoop(b.dfg(outer), 0, 1, "rows");
        {
            Dfg &d = b.dfg(bounds);
            int i = d.addInput("i");
            NodeId ip1 = d.addNode(Opcode::Add, Operand::input(i),
                                   Operand::imm(1));
            NodeId bound = d.addNode(Opcode::Load,
                                     Operand::node(ip1),
                                     Operand::none(),
                                     Operand::none(), "rd");
            d.addOutput("bound", bound);
        }
        {
            Dfg &d = b.dfg(inner);
            int j = d.addInput("j");
            int bound = d.addInput("bound");
            NodeId lt = d.addNode(Opcode::CmpLt, Operand::input(j),
                                  Operand::input(bound));
            d.addNode(Opcode::Loop, Operand::node(lt),
                      Operand::imm(1));
            d.addOutput("continue", lt);
        }
        {
            Dfg &d = b.dfg(body);
            int j = d.addInput("j");
            int sum = d.addInput("sum");
            NodeId v = d.addNode(Opcode::Load, Operand::input(j),
                                 Operand::none(), Operand::none(),
                                 "val");
            NodeId ns = d.addNode(Opcode::Add, Operand::input(sum),
                                  Operand::node(v));
            NodeId nj = d.addNode(Opcode::Add, Operand::input(j),
                                  Operand::imm(1));
            d.addOutput("sum", ns);
            d.addOutput("j", nj);
        }
        for (BlockId lb : {latch, done}) {
            Dfg &d = b.dfg(lb);
            int x = d.addInput("x");
            d.addOutput("x", d.addNode(Opcode::Copy,
                                       Operand::input(x)));
        }
        b.fall(outer, bounds);
        b.fall(bounds, inner);
        b.fall(inner, body);
        b.loopBack(body, inner);
        b.loopExit(inner, latch);
        b.loopBack(latch, outer);
        b.loopExit(outer, done);
        return b.finish();
    }

    WorkloadMachineSpec
    machineSpec() const override
    {
        WorkloadMachineSpec spec;
        spec.available = true;
        spec.loopBounds["row_loop"] = {0, kRows, 1};
        spec.inductionPorts["row_loop"] = "i";
        spec.whileBounds["w_loop"] = kCap;
        spec.arrayBases["rd"] = 0;
        spec.arrayBases["val"] = 16;
        spec.scalars["j"] = 0;
        spec.scalars["sum"] = 0;
        spec.memoryImage.assign(16 + 6, 0);
        std::vector<Word> rdv = rd(), vv = val();
        for (std::size_t k = 0; k < rdv.size(); ++k)
            spec.memoryImage[k] = rdv[k];
        for (std::size_t k = 0; k < vv.size(); ++k)
            spec.memoryImage[16 + k] = vv[k];

        // Slot stream: kRows x kCap words, frozen on masked slots.
        std::vector<Word> stream;
        Word sum = 0, j = 0;
        for (int r = 0; r < kRows; ++r) {
            Word bound = rdv[static_cast<std::size_t>(r + 1)];
            for (int k = 0; k < kCap; ++k) {
                if (j < bound) {
                    sum += vv[static_cast<std::size_t>(j)];
                    ++j;
                }
                stream.push_back(sum);
            }
        }
        spec.observePorts = {"sum"};
        spec.expectedOutputs = {std::move(stream)};
        return spec;
    }

    std::uint64_t
    runGolden(KernelRecorder &rec) const override
    {
        std::vector<Word> rdv = rd(), vv = val();
        Word sum = 0;
        rec.round(0);
        for (int r = 0; r < kRows; ++r) {
            rec.iteration(0);
            rec.block(1);
            rec.round(2);
            for (Word k = rdv[static_cast<std::size_t>(r)];
                 k < rdv[static_cast<std::size_t>(r + 1)]; ++k) {
                rec.iteration(2);
                rec.block(3);
                sum += vv[static_cast<std::size_t>(k)];
            }
            rec.block(4);
        }
        rec.block(5);
        return static_cast<std::uint64_t>(sum);
    }
};

TEST(WhileLowering, GuardedExitMasksPastTheDynamicBound)
{
    WhileWorkload w;
    CompileResult r = Compiler(evalFabric()).compile(w);
    ASSERT_TRUE(r.ok()) << r.report.toString();
    EXPECT_NE(structureNote(r.report).find("while 'w_loop'"),
              std::string::npos);

    MachineConfig config = evalFabric();
    MarionetteMachine machine(config);
    r.kernel->prepare(machine);
    RunResult run = machine.run(r.kernel->cycleBudget);
    EXPECT_EQ(r.kernel->validate(machine, run), "");
}

TEST(WhileLowering, MissingCapIsABindDiagnostic)
{
    class Uncapped : public WhileWorkload
    {
      public:
        WorkloadMachineSpec
        machineSpec() const override
        {
            WorkloadMachineSpec spec =
                WhileWorkload::machineSpec();
            spec.whileBounds.clear();
            return spec;
        }
    };
    CompileResult r = Compiler(evalFabric()).compile(Uncapped());
    ASSERT_FALSE(r.ok());
    EXPECT_EQ(r.report.failedPass, "bind");
    EXPECT_NE(r.report.reason.find("w_loop"), std::string::npos);
    EXPECT_NE(r.report.reason.find("iteration cap"),
              std::string::npos);
}

// ------------------------------------------------------------------
// Predicated memory operations (the ISA hook the gated lowering
// and if-converted stores rely on).
// ------------------------------------------------------------------

TEST(PredicatedMemory, StorePredicateSkipsTheWrite)
{
    MachineConfig config;
    ProgramBuilder b("pred_store", config);
    b.setNumOutputs(1);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = 8;
    gen.loopStep = 1;
    gen.pipelineII = 1;
    gen.dests = {DestSel::toPe(1, 0), DestSel::toPe(2, 0),
                 DestSel::toPe(2, 2)};
    b.setEntry(0, 0);
    // PE1: parity predicate i & 1.
    Instruction &par = b.place(1, 0);
    par.mode = SenderMode::Dfg;
    par.op = Opcode::And;
    par.a = OperandSel::channel(0);
    par.b = OperandSel::immediate(1);
    par.dests = {DestSel::toPe(2, 2)};
    b.setEntry(1, 0);
    // PE2: store 100+i at address i, predicated on odd i.  (The
    // third generator dest above is replaced by PE1's predicate:
    // keep exactly one driver per channel.)
    gen.dests.pop_back();
    Instruction &st = b.place(2, 0);
    st.mode = SenderMode::Dfg;
    st.op = Opcode::Store;
    st.a = OperandSel::channel(0);
    st.b = OperandSel::immediate(100);
    st.c = OperandSel::channel(2);
    b.setEntry(2, 0);

    MarionetteMachine machine(config);
    machine.load(b.finish());
    std::vector<Word> init(8, -1);
    machine.scratchpad().load(0, init);
    RunResult r = machine.run();
    ASSERT_TRUE(r.finished);
    for (int i = 0; i < 8; ++i) {
        Word want = (i & 1) ? 100 : -1;
        EXPECT_EQ(machine.scratchpad().read(i), want) << i;
    }
    // Exactly 4 stores reached memory.
    EXPECT_EQ(machine.peStats(2).value("stores"), 4u);
}

TEST(PredicatedMemory, LoadPredicateYieldsZeroWithoutMemory)
{
    MachineConfig config;
    ProgramBuilder b("pred_load", config);
    b.setNumOutputs(1);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = 6;
    gen.loopStep = 1;
    gen.pipelineII = 1;
    gen.dests = {DestSel::toPe(1, 0), DestSel::toPe(2, 0)};
    b.setEntry(0, 0);
    Instruction &par = b.place(1, 0);
    par.mode = SenderMode::Dfg;
    par.op = Opcode::And;
    par.a = OperandSel::channel(0);
    par.b = OperandSel::immediate(1);
    par.dests = {DestSel::toPe(2, 1)};
    b.setEntry(1, 0);
    Instruction &ld = b.place(2, 0);
    ld.mode = SenderMode::Dfg;
    ld.op = Opcode::Load;
    ld.a = OperandSel::channel(0);
    ld.b = OperandSel::channel(1); // predicate: odd i only.
    ld.dests = {DestSel::toOutput(0)};
    b.setEntry(2, 0);

    MarionetteMachine machine(config);
    machine.load(b.finish());
    std::vector<Word> data = {10, 11, 12, 13, 14, 15};
    machine.scratchpad().load(0, data);
    RunResult r = machine.run();
    ASSERT_TRUE(r.finished);
    std::vector<Word> want = {0, 11, 0, 13, 0, 15};
    EXPECT_EQ(r.outputs[0], want);
}

// ------------------------------------------------------------------
// Select folds: the lower pass rewrites a Select to the lane it
// provably yields, or to one cheaper node.  Each case is one
// counted loop whose body updates a carried
// accumulator through one Select: the fold must fire where it is
// exact and stay off where it is not, and the kernel must stay
// bit-exact on both run paths either way.
// ------------------------------------------------------------------

/** One input: @p body builds the update of acc into the body DFG
 *  from the ports i and acc; @p golden is the same update in C++,
 *  from i, acc and the loaded word d = data[i]. */
struct FoldCase
{
    const char *name;
    bool folds;
    std::function<NodeId(Dfg &, Operand i, Operand acc)> body;
    std::function<Word(Word i, Word acc, Word d)> golden;
};

class SelectFoldWorkload : public Workload
{
  public:
    explicit SelectFoldWorkload(const FoldCase &fc) : case_(fc) {}

    std::string name() const override { return "select_fold"; }
    std::string fullName() const override { return case_.name; }
    std::string sizeDesc() const override { return "16 words"; }

    static constexpr Word kSeed = 3;
    /** Mixed signs: in the Abs cases x = acc - d is negative,
     *  zero and positive. */
    static std::vector<Word>
    data()
    {
        return {5, -3, 12, 7, 9, 2, 4, -1, 30, 13, 2, 9, -6, 11, 16, 8};
    }

    Cdfg
    buildCdfg() const override
    {
        CdfgBuilder b("select_fold");
        BlockId loop = b.addLoopHeader("i_loop");
        BlockId body = b.addBlock("body");
        BlockId done = b.addBlock("done");
        dfg_patterns::addCountedLoop(b.dfg(loop), 0, 1, "n");
        {
            Dfg &d = b.dfg(body);
            Operand i = Operand::input(d.addInput("i"));
            Operand acc = Operand::input(d.addInput("acc"));
            d.addOutput("acc", case_.body(d, i, acc));
        }
        {
            Dfg &d = b.dfg(done);
            int x = d.addInput("x");
            d.addOutput("x", d.addNode(Opcode::Copy,
                                       Operand::input(x)));
        }
        b.fall(loop, body);
        b.loopBack(body, loop);
        b.loopExit(loop, done);
        return b.finish();
    }

    WorkloadMachineSpec
    machineSpec() const override
    {
        WorkloadMachineSpec spec;
        spec.available = true;
        const std::vector<Word> words = data();
        const Word n = static_cast<Word>(words.size());
        spec.loopBounds["i_loop"] = {0, n, 1};
        spec.inductionPorts["i_loop"] = "i";
        spec.scalars["acc"] = kSeed;
        spec.memoryImage = words;
        std::vector<Word> stream;
        Word acc = kSeed;
        for (Word i = 0; i < n; ++i) {
            acc = case_.golden(i, acc,
                               words[static_cast<std::size_t>(i)]);
            stream.push_back(acc);
        }
        spec.observePorts = {"acc"};
        spec.expectedOutputs = {std::move(stream)};
        return spec;
    }

    std::uint64_t
    runGolden(KernelRecorder &rec) const override
    {
        rec.round(0);
        for (std::size_t i = 0; i < data().size(); ++i) {
            rec.iteration(0);
            rec.block(1);
        }
        rec.block(2);
        return 0;
    }

  private:
    FoldCase case_;
};

/** How many instructions of @p program run @p op. */
int
countOf(const Program &program, Opcode op)
{
    int n = 0;
    for (const PeProgram &pe : program.pes)
        for (const Instruction &in : pe.instrs)
            n += in.op == op ? 1 : 0;
    return n;
}

/** Compile every case: one @p counted instruction
 *  (a Select unless named) stays unless the case folds, and both run
 *  paths match the golden stream. */
void
expectFolds(const std::vector<FoldCase> &cases,
            Opcode counted = Opcode::Select)
{
    for (const FoldCase &fc : cases) {
        CompileResult r =
            Compiler(evalFabric()).compile(SelectFoldWorkload(fc));
        ASSERT_TRUE(r.ok()) << fc.name << "\n" << r.report.toString();
        EXPECT_EQ(countOf(r.kernel->program, counted), fc.folds ? 0 : 1)
            << fc.name;
        for (bool event : {false, true}) {
            MachineConfig config = evalFabric();
            config.eventDrivenSim = event;
            MarionetteMachine machine(config);
            r.kernel->prepare(machine);
            RunResult run = machine.run(r.kernel->cycleBudget);
            EXPECT_EQ(r.kernel->validate(machine, run), "")
                << fc.name << (event ? " (event)" : " (reference)");
        }
    }
}

Operand
op(Dfg &d, Opcode code, Operand a, Operand b = Operand::none(),
   Operand c = Operand::none())
{
    return Operand::node(d.addNode(code, a, b, c));
}

/** data[i], masked to 0 where @p pred is 0 (none: unmasked). */
Operand
load(Dfg &d, Operand i, Operand pred = Operand::none())
{
    return op(d, Opcode::Load, i, pred);
}

NodeId
select(Dfg &d, Operand cond, Operand t, Operand f)
{
    return d.addNode(Opcode::Select, cond, t, f);
}

Operand
odd(Dfg &d, Operand i)
{
    return op(d, Opcode::And, i, Operand::imm(1));
}

/** Select(#c, acc + data[i], acc - data[i]). */
FoldCase
constantCase(const char *name, Word c)
{
    return {name, true,
            [=](Dfg &d, Operand i, Operand acc) {
                Operand v = load(d, i);
                return select(d, Operand::imm(c),
                              op(d, Opcode::Add, acc, v),
                              op(d, Opcode::Sub, acc, v));
            },
            [=](Word, Word acc, Word v) {
                return c ? acc + v : acc - v;
            }};
}

TEST(SelectFold, ConstantConditionPicksItsLane)
{
    expectFolds({constantCase("Select(#1, acc + d, acc - d)", 1),
                 constantCase("Select(#0, acc + d, acc - d)", 0)});
}

/** Select(p, acc op Load(i, pred = p), acc) for p = i & 1, the
 *  load on the side @p loadFirst names. */
FoldCase
gatedCase(const char *name, bool folds, Opcode code, bool loadFirst,
          Word (*golden)(Word, Word))
{
    return {name, folds,
            [=](Dfg &d, Operand i, Operand acc) {
                Operand p = odd(d, i);
                Operand v = load(d, i, p);
                return select(d, p,
                              loadFirst ? op(d, code, v, acc)
                                        : op(d, code, acc, v),
                              acc);
            },
            [=](Word i, Word acc, Word v) {
                return (i & 1) ? golden(acc, v) : acc;
            }};
}

TEST(SelectFold, MaskedLoadIsAbsorbedByItsGate)
{
    expectFolds({
        gatedCase("acc ^ L", true, Opcode::Xor, false,
                  [](Word a, Word v) { return a ^ v; }),
        gatedCase("L + acc", true, Opcode::Add, true,
                  [](Word a, Word v) { return a + v; }),
        gatedCase("L | acc", true, Opcode::Or, true,
                  [](Word a, Word v) { return a | v; }),
        gatedCase("acc - L", true, Opcode::Sub, false,
                  [](Word a, Word v) { return a - v; }),
        // 0 - acc is not acc, and acc & 0 is not acc.
        gatedCase("L - acc", false, Opcode::Sub, true,
                  [](Word a, Word v) { return v - a; }),
        gatedCase("acc & L", false, Opcode::And, false,
                  [](Word a, Word v) { return a & v; }),
        // A load masked by i & 2 reads data where i & 1 is 0.
        {"acc ^ L under another predicate", false,
         [](Dfg &d, Operand i, Operand acc) {
             Operand v =
                 load(d, i, op(d, Opcode::And, i, Operand::imm(2)));
             return select(d, odd(d, i), op(d, Opcode::Xor, acc, v),
                           acc);
         },
         [](Word i, Word acc, Word v) {
             return (i & 1) ? acc ^ ((i & 2) ? v : 0) : acc;
         }},
    });
}

/** acc = Select(cmp(a, b), t, f) over x = acc - data[i], with the
 *  compare's operands and the lanes drawn from x, Neg(x) and @p k. */
FoldCase
absCase(const char *name, bool folds, Opcode cmp, bool zeroFirst,
        bool negTaken, Word k, Word (*golden)(Word))
{
    return {name, folds,
            [=](Dfg &d, Operand i, Operand acc) {
                Operand x = op(d, Opcode::Sub, acc, load(d, i));
                Operand c = zeroFirst
                                ? op(d, cmp, Operand::imm(k), x)
                                : op(d, cmp, x, Operand::imm(k));
                Operand nx = op(d, Opcode::Neg, x);
                return negTaken ? select(d, c, nx, x)
                                : select(d, c, x, nx);
            },
            [=](Word, Word acc, Word v) { return golden(acc - v); }};
}

TEST(SelectFold, SignSelectIsAbs)
{
    auto abs = [](Word x) { return x < 0 ? -x : x; };
    expectFolds({
        absCase("x < 0 ? -x : x", true, Opcode::CmpLt, false, true, 0,
                abs),
        absCase("0 > x ? -x : x", true, Opcode::CmpGt, true, true, 0,
                abs),
        absCase("x >= 0 ? x : -x", true, Opcode::CmpGe, false, false,
                0, abs),
        absCase("0 <= x ? x : -x", true, Opcode::CmpLe, true, false, 0,
                abs),
        // Against 3, x = 1 and x = 2 take the negated lane.
        absCase("x < 3 ? -x : x", false, Opcode::CmpLt, false, true, 3,
                [](Word x) { return x < 3 ? -x : x; }),
    });
}

/** acc + (odd ? -w : v) over v = data[i], with the sum's operands
 *  and the select's lanes in the order named; w is v unless
 *  @p shifted, then v + 1. */
FoldCase
signCase(const char *name, bool folds, bool selectFirst, bool negTaken,
         bool shifted)
{
    return {name, folds,
            [=](Dfg &d, Operand i, Operand acc) {
                Operand v = load(d, i);
                Operand w =
                    shifted ? op(d, Opcode::Add, v, Operand::imm(1)) : v;
                Operand nw = op(d, Opcode::Neg, w);
                Operand s = Operand::node(
                    negTaken ? select(d, odd(d, i), nw, v)
                             : select(d, odd(d, i), v, nw));
                return static_cast<NodeId>(
                    (selectFirst ? op(d, Opcode::Add, s, acc)
                                 : op(d, Opcode::Add, acc, s))
                        .ref);
            },
            [=](Word i, Word acc, Word v) {
                const Word w = shifted ? v + 1 : v;
                return acc + (((i & 1) != 0) == negTaken ? -w : v);
            }};
}

TEST(SelectFold, SignSelectIsAbsorbedIntoSubAndAdd)
{
    // The Neg leaves the program; the select stays, on Sub and Add.
    expectFolds(
        {
            signCase("acc + (odd ? -d : d)", true, false, true, false),
            signCase("(odd ? d : -d) + acc", true, true, false, false),
            // -(d + 1) is not -d.
            signCase("acc + (odd ? -(d + 1) : d)", false, false, true,
                     true),
        },
        Opcode::Neg);
}

/** The range check y < lo || y > hi on y = x + shift, its compares
 *  and its Or written the other way round when @p mirrored. */
struct Outside
{
    Word lo;
    Word hi;
    bool mirrored = false;
    Word shift = 0;
};

/** Select(check, Min(Max(x, lo), hi), x) over x = data[i] + 2, which
 *  runs below 0, through 14 and 15 and above 15; the Min's and Max's
 *  immediates come first when @p immFirst. */
FoldCase
clampCase(const char *name, bool folds, Outside check, Word lo, Word hi,
          bool immFirst = false)
{
    return {name, folds,
            [=](Dfg &d, Operand i, Operand) {
                Operand x = op(d, Opcode::Add, load(d, i), Operand::imm(2));
                Operand y = check.shift == 0
                                ? x
                                : op(d, Opcode::Add, x,
                                     Operand::imm(check.shift));
                auto cmp = [&](Opcode code, Opcode flipped, Word k) {
                    return check.mirrored
                               ? op(d, flipped, Operand::imm(k), y)
                               : op(d, code, y, Operand::imm(k));
                };
                Operand below = cmp(Opcode::CmpLt, Opcode::CmpGt, check.lo);
                Operand above = cmp(Opcode::CmpGt, Opcode::CmpLt, check.hi);
                Operand out = check.mirrored
                                  ? op(d, Opcode::Or, above, below)
                                  : op(d, Opcode::Or, below, above);
                auto with = [&](Opcode code, Operand o, Word k) {
                    return immFirst ? op(d, code, Operand::imm(k), o)
                                    : op(d, code, o, Operand::imm(k));
                };
                return select(d, out,
                              with(Opcode::Min, with(Opcode::Max, x, lo), hi),
                              x);
            },
            [=](Word, Word, Word v) {
                const Word x = v + 2;
                const Word y = x + check.shift;
                return y < check.lo || y > check.hi
                           ? std::min(std::max(x, lo), hi)
                           : x;
            }};
}

TEST(SelectFold, RangeCheckedClampIsTheClamp)
{
    expectFolds({
        clampCase("x < 0 || x > 15 ? clamp(x, 0, 15) : x", true, {0, 15},
                  0, 15),
        clampCase("15 < x || 0 > x ? Min(15, Max(0, x)) : x", true,
                  {0, 15, true}, 0, 15, true),
        // The clamp gives 14 where x = 15 passes the compares.
        clampCase("x < 0 || x > 15 ? clamp(x, 0, 14) : x", false, {0, 15},
                  0, 14),
        // lo > hi bounds no range.
        clampCase("x < 15 || x > 0 ? clamp(x, 15, 0) : x", false, {15, 0},
                  15, 0),
        // The compares test y = x + 2: x = -1 passes them.
        clampCase("y < 0 || y > 15 ? clamp(x, 0, 15) : x", false,
                  {0, 15, false, 2}, 0, 15),
    });
}

// ------------------------------------------------------------------
// Run-ahead: the lower pass proves how many slots a store-order
// token may run ahead of its producer.  Each case is one 64-slot
// loop whose loads are fenced on the carried store token aw, the
// workloads' idiom, over a 128-word array: the derived slack is
// read from the lower note, and the kernel must stay bit-exact on
// both run paths at that slack.
// ------------------------------------------------------------------

/** @p body builds the loop body from the ports i, aw and acc (a
 *  carried accumulator the body may ignore) and returns the
 *  observed value, the store and the next acc; @p golden runs slot
 *  i on @p mem and returns the observed word. */
struct RunAheadCase
{
    std::string name;
    std::function<std::array<NodeId, 3>(Dfg &, Operand i, Operand aw,
                                        Operand acc)>
        body;
    std::function<Word(std::vector<Word> &mem, Word i, Word &acc)>
        golden;
};

class RunAheadWorkload : public Workload
{
  public:
    explicit RunAheadWorkload(RunAheadCase rc) : case_(std::move(rc))
    {}

    std::string name() const override { return "run_ahead"; }
    std::string fullName() const override { return case_.name; }
    std::string sizeDesc() const override { return "64 slots"; }

    static constexpr Word kSlots = 64;

    /** a[k] = 5k + 3 below 64; above, a[64 + i] = i ^ 1 (the
     *  permutation the indirect case scatters through). */
    static std::vector<Word>
    image()
    {
        std::vector<Word> mem(2 * kSlots);
        for (Word k = 0; k < kSlots; ++k) {
            mem[static_cast<std::size_t>(k)] = 5 * k + 3;
            mem[static_cast<std::size_t>(kSlots + k)] = k ^ 1;
        }
        return mem;
    }

    Cdfg
    buildCdfg() const override
    {
        CdfgBuilder b("run_ahead");
        BlockId loop = b.addLoopHeader("i_loop");
        BlockId body = b.addBlock("body");
        BlockId done = b.addBlock("done");
        dfg_patterns::addCountedLoop(b.dfg(loop), 0, 1, "n");
        {
            Dfg &d = b.dfg(body);
            Operand i = Operand::input(d.addInput("i"));
            Operand aw = Operand::input(d.addInput("aw"));
            Operand acc = Operand::input(d.addInput("acc"));
            const std::array<NodeId, 3> out = case_.body(d, i, aw, acc);
            d.addOutput("v", out[0]);
            d.addOutput("aw", out[1]);
            if (out[2] != invalidNode)
                d.addOutput("acc", out[2]);
        }
        {
            Dfg &d = b.dfg(done);
            int x = d.addInput("x");
            d.addOutput("x", d.addNode(Opcode::Copy,
                                       Operand::input(x)));
        }
        b.fall(loop, body);
        b.loopBack(body, loop);
        b.loopExit(loop, done);
        return b.finish();
    }

    WorkloadMachineSpec
    machineSpec() const override
    {
        WorkloadMachineSpec spec;
        spec.available = true;
        spec.loopBounds["i_loop"] = {0, kSlots, 1};
        spec.inductionPorts["i_loop"] = "i";
        spec.scalars["aw"] = 0;
        spec.scalars["acc"] = 0;
        std::vector<Word> mem = image();
        spec.memoryImage = mem;
        std::vector<Word> stream;
        Word acc = 0;
        for (Word i = 0; i < kSlots; ++i)
            stream.push_back(case_.golden(mem, i, acc));
        spec.observePorts = {"v"};
        spec.expectedOutputs = {std::move(stream)};
        spec.expectedMemory = {{"a", 0, mem}};
        return spec;
    }

    std::uint64_t
    runGolden(KernelRecorder &rec) const override
    {
        rec.round(0);
        for (Word i = 0; i < kSlots; ++i) {
            rec.iteration(0);
            rec.block(1);
        }
        rec.block(2);
        return 0;
    }

  private:
    RunAheadCase case_;
};

/** The lower pass's run-ahead note ("" when the phase has no
 *  ordering token). */
std::string
runAheadNote(const CompileReport &report)
{
    for (const CompilerPassNote &n : report.notes)
        if (n.pass == "lower" &&
            n.message.find("ordering token") != std::string::npos)
            return n.message;
    return {};
}

/** The lower note naming the token-gate fold ("" without one). */
std::string
gateFoldNote(const CompileReport &report)
{
    for (const CompilerPassNote &n : report.notes)
        if (n.pass == "lower" &&
            n.message.find("token-gate") != std::string::npos)
            return n.message;
    return {};
}

/** Compile @p rc, check its run-ahead note and its token-gate
 *  fold note (@p gates), and validate both run paths;
 *  returns the event path's cycles. */
Cycles
expectRunAhead(const RunAheadCase &rc, const std::string &note,
               const std::string &gates = "")
{
    CompileResult r =
        Compiler(evalFabric()).compile(RunAheadWorkload(rc));
    EXPECT_TRUE(r.ok()) << rc.name << "\n" << r.report.toString();
    if (!r.ok())
        return 0;
    EXPECT_EQ(runAheadNote(r.report), note) << rc.name;
    EXPECT_EQ(gateFoldNote(r.report), gates) << rc.name;
    Cycles cycles = 0;
    for (bool event : {false, true}) {
        MachineConfig config = evalFabric();
        config.eventDrivenSim = event;
        MarionetteMachine machine(config);
        r.kernel->prepare(machine);
        RunResult run = machine.run(r.kernel->cycleBudget);
        EXPECT_EQ(r.kernel->validate(machine, run), "")
            << rc.name << (event ? " (event)" : " (reference)");
        cycles = run.cycles;
    }
    return cycles;
}

/** v = a[i] + 0 * aw, fenced on the store token and masked to 0
 *  where @p pred is 0 (none: unmasked). */
Operand
fencedLoad(Dfg &d, Operand addr, Operand aw,
           Operand pred = Operand::none())
{
    Operand z = op(d, Opcode::And, aw, Operand::imm(0));
    return load(d, op(d, Opcode::Add, addr, z), pred);
}

/** a[i + D] = a[i] + 1: the store feeds the load D slots later. */
RunAheadCase
distanceCase(Word D)
{
    return {"a[i + " + std::to_string(D) + "] = a[i] + 1",
            [=](Dfg &d, Operand i, Operand aw, Operand) {
                Operand v = fencedLoad(d, i, aw);
                NodeId st = d.addNode(
                    Opcode::Store, op(d, Opcode::Add, i, Operand::imm(D)),
                    op(d, Opcode::Add, v, Operand::imm(1)),
                    Operand::none(), "a");
                return std::array<NodeId, 3>{
                    static_cast<NodeId>(v.ref), st, invalidNode};
            },
            [=](std::vector<Word> &mem, Word i, Word &) {
                const Word v = mem[static_cast<std::size_t>(i)];
                mem[static_cast<std::size_t>(i + D)] = v + 1;
                return v;
            }};
}

std::string
tokenNote(Word slack, const std::string &nearest)
{
    return "phase 'i_loop': ordering token(s) 'aw' run " +
           std::to_string(slack) +
           " slot(s) ahead; nearest same-word pair they order: " +
           nearest;
}

TEST(RunAhead, SlackIsTheProvenAliasDistance)
{
    Cycles previous = 0;
    for (Word D : {1, 2, 3, 5, 7, 9}) {
        const Word slack = std::min<Word>(D, kDataChannelDepth - 1);
        const Cycles cycles = expectRunAhead(
            distanceCase(D),
            tokenNote(slack, std::to_string(D) + " slot(s) apart"));
        // Each extra slot of slack shortens the token's recurrence;
        // past the channel's depth there is none to gain.
        if (D > 1 && D <= 7) {
            EXPECT_LT(cycles, previous) << D;
        } else if (D == 9) {
            EXPECT_EQ(cycles, previous) << D;
        }
        previous = cycles;
    }
}

TEST(RunAhead, LoadedAddressKeepsSlackOne)
{
    // a[perm[i]] = a[i] + 1 with perm[i] = i ^ 1: the store's word
    // comes from memory, so the proof cannot pair it (and slot 0's
    // store feeds slot 1's load).
    expectRunAhead(
        {"a[perm[i]] = a[i] + 1",
         [](Dfg &d, Operand i, Operand aw, Operand) {
             Operand p = fencedLoad(
                 d, op(d, Opcode::Add, i,
                       Operand::imm(RunAheadWorkload::kSlots)),
                 aw);
             Operand v = fencedLoad(d, i, aw);
             NodeId st = d.addNode(
                 Opcode::Store, p, op(d, Opcode::Add, v, Operand::imm(1)),
                 Operand::none(), "a");
             return std::array<NodeId, 3>{static_cast<NodeId>(v.ref),
                                          st, invalidNode};
         },
         [](std::vector<Word> &mem, Word i, Word &) {
             const Word p = mem[static_cast<std::size_t>(
                 RunAheadWorkload::kSlots + i)];
             const Word v = mem[static_cast<std::size_t>(i)];
             mem[static_cast<std::size_t>(p)] = v + 1;
             return v;
         }},
        "phase 'i_loop': ordering token(s) 'aw' keep slack 1: the "
        "address of store 'a' does not evaluate from the slot index");
}

TEST(RunAhead, PairsOrderedWithoutTheTokenDoNotCapIt)
{
    // a[(i + 62) % 64] = acc += a[i]: each load's word is rewritten
    // 2 slots later, but that pair is ordered through the carried
    // acc (one slot per hop), not the token.  Only the wrap-around
    // stores of slots 0 and 1, read 62 slots later, need the token.
    expectRunAhead(
        {"a[(i + 62) % 64] = acc += a[i]",
         [](Dfg &d, Operand i, Operand aw, Operand acc) {
             Operand v = fencedLoad(d, i, aw);
             Operand sum = op(d, Opcode::Add, acc, v);
             NodeId st = d.addNode(
                 Opcode::Store,
                 op(d, Opcode::And, op(d, Opcode::Add, i, Operand::imm(62)),
                    Operand::imm(63)),
                 sum, Operand::none(), "a");
             return std::array<NodeId, 3>{static_cast<NodeId>(sum.ref),
                                          st,
                                          static_cast<NodeId>(sum.ref)};
         },
         [](std::vector<Word> &mem, Word i, Word &acc) {
             acc += mem[static_cast<std::size_t>(i)];
             mem[static_cast<std::size_t>((i + 62) % 64)] = acc;
             return acc;
         }},
        tokenNote(7, "62 slot(s) apart"));
}

TEST(RunAhead, AnAssumedPredicateHidesNoEarlierSlot)
{
    // a[0] = i + tog on odd slots, then v = a[0] on even slots, where
    // tog is a carried toggle (0, 1, 0, ...) that waits on v, so it
    // orders each load before the next slot's store.  The store's
    // predicate does not evaluate from the slot, so the proof takes
    // the store at every slot, the load's own included; that access
    // must not hide the store one slot earlier, which only the token
    // orders before the load.
    expectRunAhead(
        {"a[0] = i + tog if tog; v = a[0] if i is even",
         [](Dfg &d, Operand i, Operand aw, Operand tog) {
             NodeId st = d.addNode(Opcode::Store, Operand::imm(0),
                                   op(d, Opcode::Add, i, tog), tog, "a");
             Operand even = op(d, Opcode::Xor, odd(d, i), Operand::imm(1));
             Operand v = fencedLoad(d, Operand::imm(0), aw, even);
             Operand next = op(d, Opcode::Add,
                               op(d, Opcode::Xor, tog, Operand::imm(1)),
                               op(d, Opcode::And, v, Operand::imm(0)));
             return std::array<NodeId, 3>{static_cast<NodeId>(v.ref),
                                          st,
                                          static_cast<NodeId>(next.ref)};
         },
         [](std::vector<Word> &mem, Word i, Word &) {
             if (i % 2 == 1)
                 mem[0] = i + 1;
             return i % 2 == 0 ? mem[0] : Word{0};
         }},
        tokenNote(1, "1 slot(s) apart"));
}

TEST(RunAhead, ValuesThatReachMemoryOrAPortAreNotTokens)
{
    // The store token also feeds the stored value: aw is data, so
    // no phase value is a token and no note is written.
    expectRunAhead(
        {"a[i + 2] = a[i] ^ aw",
         [](Dfg &d, Operand i, Operand aw, Operand) {
             Operand v = fencedLoad(d, i, aw);
             NodeId st = d.addNode(
                 Opcode::Store, op(d, Opcode::Add, i, Operand::imm(2)),
                 op(d, Opcode::Xor, v, aw), Operand::none(), "a");
             return std::array<NodeId, 3>{static_cast<NodeId>(v.ref),
                                          st, invalidNode};
         },
         [](std::vector<Word> &mem, Word i, Word &acc) {
             // acc stands in for aw: the previous slot's stored word.
             const Word v = mem[static_cast<std::size_t>(i)];
             acc ^= v;
             mem[static_cast<std::size_t>(i + 2)] = acc;
             return v;
         }},
        "");

    // CRC's crc reaches the stored value and the observed port;
    // SCD's x and bit reach the partial-sum store and the port.
    const Compiler compiler(evalFabric());
    EXPECT_EQ(runAheadNote(compiler.compile("CRC").report), "");
    EXPECT_EQ(runAheadNote(compiler.compile("SCD").report),
              "phase 'phase_loop': ordering token(s) 'llrw', 'psw' run "
              "7 slot(s) ahead; nearest same-word pair they order: 128 "
              "slot(s) apart");
}

TEST(RunAhead, AGateFoldsOntoTheLaneThatWaitsForTheOthers)
{
    // aw = odd ? st : aw + (st & 0) + (odd & 0): the else lane waits
    // for the store and the condition, so the gate folds onto it, and
    // each fenced load still waits for the store two slots back.
    const RunAheadCase two = distanceCase(2);
    expectRunAhead(
        {"aw = odd ? st : aw + (st & 0) + (odd & 0)",
         [](Dfg &d, Operand i, Operand aw, Operand acc) {
             std::array<NodeId, 3> out = distanceCase(2).body(d, i, aw, acc);
             const Operand st = Operand::node(out[1]);
             const Operand p = odd(d, i);
             auto zero = [&](Operand o) {
                 return op(d, Opcode::And, o, Operand::imm(0));
             };
             const Operand waits = op(
                 d, Opcode::Add, op(d, Opcode::Add, aw, zero(st)), zero(p));
             out[1] = select(d, p, st, waits);
             return out;
         },
         two.golden},
        tokenNote(2, "2 slot(s) apart"),
        "phase 'i_loop': 1 token-gate select(s) folded into the lane that "
        "waits for the others");
}

/** Two sibling loops in each of two rounds, and both store the token
 *  aw: the first writes b[i] = i, the second a[j + 1] = a[j] + 1
 *  with its loads fenced on aw.  The first loop's store never waits
 *  for aw, so its gate must stay: folded onto that store, the second
 *  loop's loads would no longer wait for its own earlier stores. */
class SiblingTokenWorkload : public Workload
{
  public:
    std::string name() const override { return "sibling_tokens"; }
    std::string fullName() const override { return name(); }
    std::string sizeDesc() const override { return "2 x 32 slots"; }

    static constexpr Word kRounds = 2;
    static constexpr Word kLanes = 16;
    static constexpr Word kB = 32; ///< base of b; a sits at 0.

    Cdfg
    buildCdfg() const override
    {
        CdfgBuilder b("sibling_tokens");
        BlockId round = b.addLoopHeader("r_loop");
        BlockId first = b.addLoopHeader("b_loop");
        BlockId firstBody = b.addBlock("b_body");
        BlockId second = b.addLoopHeader("a_loop");
        BlockId secondBody = b.addBlock("a_body");
        BlockId latch = b.addBlock("latch");
        BlockId done = b.addBlock("done");
        for (BlockId hdr : {round, first, second})
            dfg_patterns::addCountedLoop(b.dfg(hdr), 0, 1, "n");
        {
            Dfg &d = b.dfg(firstBody);
            Operand i = Operand::input(d.addInput("i"));
            d.addOutput("aw", d.addNode(Opcode::Store, i, i,
                                        Operand::none(), "b"));
        }
        {
            Dfg &d = b.dfg(secondBody);
            Operand j = Operand::input(d.addInput("j"));
            Operand aw = Operand::input(d.addInput("aw"));
            Operand v = fencedLoad(d, j, aw);
            d.addOutput("aw", d.addNode(
                                  Opcode::Store,
                                  op(d, Opcode::Add, j, Operand::imm(1)),
                                  op(d, Opcode::Add, v, Operand::imm(1)),
                                  Operand::none(), "a"));
        }
        for (BlockId blk : {latch, done}) {
            Dfg &d = b.dfg(blk);
            int aw = d.addInput("aw");
            d.addOutput("aw",
                        d.addNode(Opcode::Copy, Operand::input(aw)));
        }
        b.fall(round, first);
        b.fall(first, firstBody);
        b.loopBack(firstBody, first);
        b.loopExit(first, second);
        b.fall(second, secondBody);
        b.loopBack(secondBody, second);
        b.loopExit(second, latch);
        b.loopBack(latch, round);
        b.loopExit(round, done);
        return b.finish();
    }

    WorkloadMachineSpec
    machineSpec() const override
    {
        WorkloadMachineSpec spec;
        spec.available = true;
        spec.loopBounds["r_loop"] = {0, kRounds, 1};
        spec.loopBounds["b_loop"] = {0, kLanes, 1};
        spec.loopBounds["a_loop"] = {0, kLanes, 1};
        spec.inductionPorts["b_loop"] = "i";
        spec.inductionPorts["a_loop"] = "j";
        spec.arrayBases["a"] = 0;
        spec.arrayBases["b"] = kB;
        spec.scalars["aw"] = 0;
        // a[k] = 100k, so a load that overtakes the previous slot's
        // store reads a word the chain never wrote.
        std::vector<Word> mem(static_cast<std::size_t>(kB + kLanes), 0);
        for (Word k = 0; k <= kLanes; ++k)
            mem[static_cast<std::size_t>(k)] = 100 * k;
        spec.memoryImage = mem;
        for (Word r = 0; r < kRounds; ++r) {
            for (Word i = 0; i < kLanes; ++i)
                mem[static_cast<std::size_t>(kB + i)] = i;
            for (Word j = 0; j < kLanes; ++j)
                mem[static_cast<std::size_t>(j + 1)] =
                    mem[static_cast<std::size_t>(j)] + 1;
        }
        spec.expectedMemory = {{"a and b", 0, mem}};
        return spec;
    }

    std::uint64_t
    runGolden(KernelRecorder &rec) const override
    {
        rec.round(0);
        for (Word r = 0; r < kRounds; ++r) {
            rec.iteration(0);
            for (BlockId loop : {1, 3}) {
                rec.round(loop);
                for (Word i = 0; i < kLanes; ++i) {
                    rec.iteration(loop);
                    rec.block(loop + 1);
                }
            }
            rec.block(5);
        }
        rec.block(6);
        return 0;
    }
};

TEST(RunAhead, AGateWhoseOtherLaneIsNotAwaitedStays)
{
    CompileResult r = Compiler(evalFabric()).compile(SiblingTokenWorkload());
    ASSERT_TRUE(r.ok()) << r.report.toString();
    // The second loop's gate folds onto its store, which waits for
    // the first loop's gate through its fenced load; that gate stays.
    EXPECT_EQ(gateFoldNote(r.report),
              "phase 'r_loop': 1 token-gate select(s) folded into the "
              "lane that waits for the others");
    EXPECT_EQ(countOf(r.kernel->program, Opcode::Select), 1);
    for (bool event : {false, true}) {
        MachineConfig config = evalFabric();
        config.eventDrivenSim = event;
        MarionetteMachine machine(config);
        r.kernel->prepare(machine);
        RunResult run = machine.run(r.kernel->cycleBudget);
        EXPECT_EQ(r.kernel->validate(machine, run), "")
            << (event ? "event" : "reference");
    }
}

TEST(RunAhead, ScdAndLdpcTokensRunSevenAhead)
{
    // LDPC's check pass reads msg[6c + j] at slot 12c + j and
    // rewrites it at 12c + j + 6; the min tracker orders that pair
    // one slot per hop, so it does not cap the tokens at 6.  Its
    // llrw.gate and msgw.gate fold onto their stores.
    const Compiler compiler(evalFabric());
    const CompileResult ldpc = compiler.compile("LDPC");
    EXPECT_EQ(runAheadNote(ldpc.report),
              "phase 'iter_loop': ordering token(s) 'llrw', 'msgw' run "
              "7 slot(s) ahead; nearest same-word pair they order: 128 "
              "slot(s) apart");
    EXPECT_EQ(gateFoldNote(ldpc.report),
              "phase 'iter_loop': 2 token-gate select(s) folded into the "
              "lane that waits for the others");

    // SCD's two llrw.gate and its psw.gate fold: 33 operators become
    // 30, and the selects left (f, bit.gate, x.gate) carry values,
    // not a token.
    CompileResult scd = compiler.compile("SCD");
    ASSERT_TRUE(scd.ok());
    EXPECT_EQ(runAheadNote(scd.report),
              "phase 'phase_loop': ordering token(s) 'llrw', 'psw' run "
              "7 slot(s) ahead; nearest same-word pair they order: 128 "
              "slot(s) apart");
    EXPECT_EQ(gateFoldNote(scd.report),
              "phase 'phase_loop': 3 token-gate select(s) folded into the "
              "lane that waits for the others");
    EXPECT_NE(scd.report.toString().find(
                  "phase 'phase_loop': 896 flat iterations, 30 operators"),
              std::string::npos);
    EXPECT_EQ(countOf(scd.kernel->program, Opcode::Select), 3);
    for (bool event : {false, true}) {
        MachineConfig config = evalFabric();
        config.eventDrivenSim = event;
        MarionetteMachine machine(config);
        scd.kernel->prepare(machine);
        const RunResult run = machine.run(scd.kernel->cycleBudget);
        EXPECT_EQ(scd.kernel->validate(machine, run), "")
            << (event ? "event" : "reference");
        EXPECT_EQ(run.cycles, 3875u);
    }
}

} // namespace
} // namespace marionette

/**
 * @file
 * Compiler tests: the Fig. 8 reshape cost function, the Agile and
 * static schedulers' invariants, the predication transform, and
 * ProgramBuilder validation.
 */

#include <gtest/gtest.h>

#include "compiler/assignment.h"
#include "support/mapped_kernels.h"
#include "compiler/predication.h"
#include "compiler/program_builder.h"
#include "ir/builder.h"
#include "workloads/kernels.h"

namespace marionette
{
namespace
{

TEST(Reshape, WasteFollowsFig8Formula)
{
    // PE_waste = PEremapping x II - ops (Unroll = 1).
    for (const ReshapeOption &o : reshapeOptions(10, 16))
        EXPECT_EQ(o.waste, o.pes * o.ii - 10);
}

TEST(Reshape, OptionsCoverAllOps)
{
    for (const ReshapeOption &o : reshapeOptions(10, 16))
        EXPECT_GE(o.pes * o.ii, 10);
}

TEST(Reshape, SpatialOptionFirstWhenItFits)
{
    auto opts = reshapeOptions(6, 16);
    ASSERT_FALSE(opts.empty());
    EXPECT_EQ(opts[0].pes, 6);
    EXPECT_EQ(opts[0].ii, 1);
    EXPECT_EQ(opts[0].waste, 0);
}

TEST(Reshape, RespectsPeBudget)
{
    for (const ReshapeOption &o : reshapeOptions(20, 4))
        EXPECT_LE(o.pes, 4);
    // Tightest fold always exists: 1 PE at II = ops.
    auto opts = reshapeOptions(20, 1);
    ASSERT_EQ(opts.size(), 1u);
    EXPECT_EQ(opts[0].ii, 20);
}

TEST(Reshape, EmptyOnBadInput)
{
    EXPECT_TRUE(reshapeOptions(0, 4).empty());
    EXPECT_TRUE(reshapeOptions(5, 0).empty());
}

class ScheduleInvariants
    : public ::testing::TestWithParam<const Workload *>
{
};

TEST_P(ScheduleInvariants, AgilePlanIsWellFormed)
{
    Cdfg g = GetParam()->buildCdfg();
    LoopInfo li = LoopInfo::analyze(g);
    AssignmentPlan plan = agileSchedule(g, li, 16);
    EXPECT_EQ(static_cast<int>(plan.blocks.size()),
              g.numBlocks());
    for (const auto &[id, a] : plan.blocks) {
        EXPECT_GE(a.pes, 1) << g.block(id).name;
        EXPECT_GE(a.ii, 1) << g.block(id).name;
        EXPECT_LE(a.pes, 16) << g.block(id).name;
        // Folding covers the block's operators.
        EXPECT_GE(a.pes * a.ii,
                  std::max(1, g.block(id).dfg.numNodes()))
            << g.block(id).name;
    }
}

TEST_P(ScheduleInvariants, StaticPlanIsWellFormed)
{
    Cdfg g = GetParam()->buildCdfg();
    LoopInfo li = LoopInfo::analyze(g);
    AssignmentPlan plan = staticSchedule(g, li, 16);
    for (const auto &[id, a] : plan.blocks) {
        EXPECT_GE(a.pes, 1);
        EXPECT_GE(a.ii, 1);
        EXPECT_GE(a.pes * a.ii,
                  std::max(1, g.block(id).dfg.numNodes()));
    }
}

TEST_P(ScheduleInvariants, AgileNeverWorseOnInnermostBlocks)
{
    Cdfg g = GetParam()->buildCdfg();
    LoopInfo li = LoopInfo::analyze(g);
    AssignmentPlan agile = agileSchedule(g, li, 16);
    AssignmentPlan fixed = staticSchedule(g, li, 16);
    int max_depth = li.maxDepth();
    if (max_depth == 0)
        return;
    for (const BasicBlock &bb : g.blocks()) {
        if (bb.loopDepth != max_depth)
            continue;
        EXPECT_LE(agile.of(bb.id).ii, fixed.of(bb.id).ii)
            << bb.name;
    }
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, ScheduleInvariants,
    ::testing::ValuesIn(allWorkloads()),
    [](const auto &info) { return info.param->name(); });

TEST(AgileSchedule, InnermostGetsUnitIIWhenArrayLarge)
{
    Cdfg g = gemmWorkload().buildCdfg();
    LoopInfo li = LoopInfo::analyze(g);
    AssignmentPlan plan = agileSchedule(g, li, 64);
    for (const BasicBlock &bb : g.blocks()) {
        if (bb.loopDepth == 3)
            EXPECT_EQ(plan.of(bb.id).ii, 1) << bb.name;
    }
}

TEST(AgileSchedule, ToStringMentionsTimeExtension)
{
    Cdfg g = gemmWorkload().buildCdfg();
    LoopInfo li = LoopInfo::analyze(g);
    AssignmentPlan plan = agileSchedule(g, li, 8);
    std::string s = plan.toString(g);
    EXPECT_NE(s.find("II="), std::string::npos);
}

// ---- Predication ----

Cdfg
branchDiamond()
{
    CdfgBuilder b("diamond");
    BlockId br = b.addBranchBlock("br");
    BlockId t = b.addBlock("t");
    BlockId f = b.addBlock("f");
    BlockId join = b.addBlock("join");
    {
        Dfg &d = b.dfg(br);
        int x = d.addInput("x");
        NodeId c = d.addNode(Opcode::CmpGt, Operand::input(x),
                             Operand::imm(0));
        d.addNode(Opcode::Branch, Operand::node(c));
        d.addOutput("c", c);
    }
    {
        Dfg &d = b.dfg(t);
        int x = d.addInput("x");
        NodeId v = d.addNode(Opcode::Mul, Operand::input(x),
                             Operand::imm(2));
        d.addOutput("v", v);
    }
    {
        Dfg &d = b.dfg(f);
        int x = d.addInput("x");
        NodeId v = d.addNode(Opcode::Add, Operand::input(x),
                             Operand::imm(1));
        NodeId w = d.addNode(Opcode::Add, Operand::node(v),
                             Operand::imm(1));
        d.addOutput("v", w);
    }
    {
        Dfg &d = b.dfg(join);
        int v = d.addInput("v");
        NodeId c = d.addNode(Opcode::Copy, Operand::input(v));
        d.addOutput("v", c);
    }
    b.branch(br, t, f);
    b.fall(t, join);
    b.fall(f, join);
    return b.finish();
}

TEST(Predication, MergesDiamondIntoOneBlock)
{
    LoweringPredication r = predicateForLowering(branchDiamond(), {});
    EXPECT_EQ(r.cdfg.numBlocks(), 2); // merged + join.
    r.cdfg.validate();
}

TEST(Predication, OpCountsChargeLanesToBranch)
{
    Cdfg g = branchDiamond();
    auto counts = predicatedOpCounts(g);
    EXPECT_EQ(counts.at(0), 2 + 1 + 2 + 1); // br + t + f + select.
    EXPECT_EQ(counts.at(1), 0);
    EXPECT_EQ(counts.at(2), 0);
    EXPECT_EQ(counts.at(3), 1);
}

TEST(Predication, NoBranchesIsIdentityShape)
{
    Cdfg g = gemmWorkload().buildCdfg();
    LoweringPredication r = predicateForLowering(g, {});
    EXPECT_EQ(r.cdfg.numBlocks(), g.numBlocks());
    EXPECT_TRUE(r.notes.empty()); // nothing merged.
}

// ---- ProgramBuilder validation ----

TEST(BuilderDeath, RejectsOffArrayPe)
{
    MachineConfig config;
    ProgramBuilder b("x", config);
    EXPECT_EXIT(b.place(99, 0), ::testing::ExitedWithCode(1),
                "outside");
}

TEST(BuilderDeath, RejectsBadAddress)
{
    MachineConfig config;
    ProgramBuilder b("x", config);
    EXPECT_EXIT(b.place(0, 999), ::testing::ExitedWithCode(1),
                "buffer");
}

TEST(BuilderDeath, RejectsDanglingControlTarget)
{
    MachineConfig config;
    ProgramBuilder b("x", config);
    Instruction &br = b.place(0, 0);
    br.mode = SenderMode::BranchOp;
    br.op = Opcode::CmpGt;
    br.a = OperandSel::channel(0);
    br.b = OperandSel::immediate(0);
    br.takenAddr = 5; // PE 1 has nothing at address 5.
    br.notTakenAddr = 5;
    br.ctrlDests = {1};
    b.setEntry(0, 0);
    EXPECT_EXIT(b.finish(), ::testing::ExitedWithCode(1),
                "does not implement");
}

TEST(BuilderDeath, RejectsBadChannelIndex)
{
    MachineConfig config;
    ProgramBuilder b("x", config);
    Instruction &in = b.place(0, 0);
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Copy;
    in.a = OperandSel::channel(9);
    EXPECT_EXIT(b.finish(), ::testing::ExitedWithCode(1),
                "bad channel");
}

TEST(BuilderDeath, RejectsEntryWithoutInstruction)
{
    MachineConfig config;
    ProgramBuilder b("x", config);
    b.setEntry(3, 0);
    EXPECT_EXIT(b.finish(), ::testing::ExitedWithCode(1),
                "no instruction");
}

TEST(Builder, ProducesDenseInstructionBuffers)
{
    MachineConfig config;
    ProgramBuilder b("x", config);
    Instruction &in = b.place(2, 3);
    in.mode = SenderMode::Dfg;
    in.op = Opcode::Copy;
    in.a = OperandSel::channel(0);
    b.setEntry(2, 3);
    Program p = b.finish();
    EXPECT_EQ(p.numAddrs, 4);
    ASSERT_EQ(p.pes.size(), 1u);
    EXPECT_EQ(p.pes[0].instrs.size(), 4u);
    EXPECT_EQ(p.pes[0].instrs[3].op, Opcode::Copy);
    EXPECT_EQ(p.pes[0].instrs[0].mode, SenderMode::Idle);
}

TEST(DfgMapperDeath, RejectsOversizedKernel)
{
    MachineConfig config;
    config.rows = 2;
    config.cols = 2;
    config.nonlinearPes = 0;
    Dfg dfg;
    int iv = dfg.addInput("i");
    Operand prev = Operand::input(iv);
    for (int i = 0; i < 8; ++i)
        prev = Operand::node(dfg.addNode(Opcode::Add, prev,
                                         Operand::imm(1)));
    dfg.addOutput("y", prev.ref);
    EXPECT_EXIT(mapLoopedDfg("big", config, dfg,
                             LoopSpec{0, 4, 1, 1}),
                ::testing::ExitedWithCode(1), "needs");
}

TEST(DfgMapperDeath, RejectsUnboundInput)
{
    MachineConfig config;
    Dfg dfg;
    dfg.addInput("i");
    int extra = dfg.addInput("mystery");
    NodeId n = dfg.addNode(Opcode::Copy, Operand::input(extra));
    dfg.addOutput("y", n);
    EXPECT_EXIT(mapLoopedDfg("k", config, dfg,
                             LoopSpec{0, 4, 1, 1}),
                ::testing::ExitedWithCode(1), "binding");
}

TEST(DfgMapper, BindsNamedInputsAsImmediates)
{
    MachineConfig config;
    Dfg dfg;
    int iv = dfg.addInput("i");
    int scale = dfg.addInput("scale");
    NodeId n = dfg.addNode(Opcode::Mul, Operand::input(iv),
                           Operand::input(scale));
    dfg.addOutput("y", n);
    Program p = mapLoopedDfg("k", config, dfg,
                             LoopSpec{0, 4, 1, 1},
                             {{"scale", 7}});
    // The multiply instruction must carry the immediate 7.
    bool found = false;
    for (const PeProgram &pe : p.pes)
        for (const Instruction &in : pe.instrs)
            if (in.op == Opcode::Mul)
                found = in.b.kind == OperandSel::Kind::Imm &&
                        in.b.imm == 7;
    EXPECT_TRUE(found);
}

} // namespace
} // namespace marionette

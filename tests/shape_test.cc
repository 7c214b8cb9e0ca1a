/**
 * @file
 * Paper-shape regression tests: the qualitative statements the
 * evaluation section makes, pinned as assertions so model changes
 * cannot silently break the reproduction (complements the
 * band checks in model_test.cc).
 */

#include <gtest/gtest.h>

#include "arch/machine.h"
#include "compiler/program_builder.h"
#include "model/arch_model.h"
#include "model/eval.h"
#include "workloads/kernels.h"

namespace marionette
{
namespace
{

const WorkloadProfile &
profileOf(const std::string &name)
{
    for (const WorkloadProfile &p : allProfiles())
        if (p.name == name)
            return p;
    ADD_FAILURE() << "no profile " << name;
    static WorkloadProfile dummy;
    return dummy;
}

TEST(Fig11Shape, BranchHeavyKernelsGainMostOverVonNeumann)
{
    // "Merge Sort has the highest branch subsequent PE ratio" —
    // the branch-serial kernels (MS/CRC/ADPCM) must beat the
    // regular ones (HT/GEMM/NW) in Marionette-vs-vonNeumann gain.
    ModelParams params;
    Features base;
    base.controlNetwork = false;
    base.agileAssignment = false;
    auto vn = makeVonNeumannPe(params);
    auto mar = makeMarionette(params, base);
    auto gain = [&](const char *name) {
        const WorkloadProfile &p = profileOf(name);
        return vn->run(p).cycles / mar->run(p).cycles;
    };
    double branchy =
        std::min({gain("MS"), gain("CRC"), gain("ADPCM")});
    double regular =
        std::max({gain("HT"), gain("GEMM"), gain("NW")});
    EXPECT_GT(branchy, regular);
}

TEST(Fig11Shape, DataflowPeWorstOnRegularPipelines)
{
    // "the data flow PE still has poor performance even if it has
    // some flexibility" — the per-token config tax shows most
    // clearly where everyone else reaches II=1.
    ModelParams params;
    auto vn = makeVonNeumannPe(params);
    auto df = makeDataflowPe(params);
    for (const char *name : {"GEMM", "HT"}) {
        const WorkloadProfile &p = profileOf(name);
        EXPECT_GT(df->run(p).cycles, vn->run(p).cycles * 1.2)
            << name;
    }
}

TEST(Fig12Shape, SerialKernelsGainMostFromControlNetwork)
{
    ModelParams params;
    Features base;
    base.controlNetwork = false;
    base.agileAssignment = false;
    Features net = base;
    net.controlNetwork = true;
    auto m_base = makeMarionette(params, base);
    auto m_net = makeMarionette(params, net);
    auto gain = [&](const char *name) {
        const WorkloadProfile &p = profileOf(name);
        return m_base->run(p).cycles / m_net->run(p).cycles;
    };
    // Paper: "CRC, ADPCM, and Merge Sort are only partially
    // pipelined. Hence, the overhead of the control flow transfer
    // is high, and the speedup is apparent."
    double serial =
        std::min({gain("CRC"), gain("ADPCM"), gain("MS")});
    double regular = std::max(
        {gain("HT"), gain("GEMM"), gain("VI"), gain("NW")});
    EXPECT_GT(serial, regular);
    EXPECT_GT(serial, 1.15);
    EXPECT_LT(regular, 1.1);
}

TEST(Fig14Shape, PipelineableNestsGainMostFromAgile)
{
    ModelParams params;
    Features net;
    net.agileAssignment = false;
    Features all;
    auto m_net = makeMarionette(params, net);
    auto m_all = makeMarionette(params, all);
    auto gain = [&](const char *name) {
        const WorkloadProfile &p = profileOf(name);
        return m_net->run(p).cycles / m_all->run(p).cycles;
    };
    // Paper: HT, NW, SCD and GEMM "are suitable because outer BBs
    // can generate more control flow"; ADPCM cannot gain.  (SCD's
    // inner blocks carry store-chain fence operators for the
    // machine lowering, which slightly dilutes its inner/outer op
    // ratio — the qualitative gap to ADPCM/VI is what matters.)
    EXPECT_GT(gain("GEMM"), 1.8);
    EXPECT_GT(gain("HT"), 1.8);
    EXPECT_GT(gain("SCD"), 1.6);
    EXPECT_NEAR(gain("ADPCM"), 1.0, 0.05);
    // FFT/VI: the data-dependent II bounds the benefit for VI.
    EXPECT_LT(gain("VI"), 1.6);
}

TEST(Fig17Shape, RevelComparableOnRegularControlFlow)
{
    // "For Viterbi, Hough Transform, SC Decode and GEMM ... the
    // REVEL execution model is comparable to the Agile PE
    // Assignment, so the speedup is better."
    ModelParams params;
    Features full;
    auto mar = makeMarionette(params, full);
    auto revel = makeRevel(params);
    // (A deviation: the paper also lists HT here, but our REVEL
    // model serializes HT's branch-bearing middle loop onto the
    // single dataflow PE, so HT is excluded.)
    std::vector<double> comparable, others;
    for (const WorkloadProfile &p : intensiveProfiles()) {
        double ratio = revel->run(p).cycles / mar->run(p).cycles;
        bool is_comparable = p.name == "VI" ||
                             p.name == "SCD" || p.name == "GEMM";
        (is_comparable ? comparable : others).push_back(ratio);
    }
    EXPECT_LT(geomean(comparable), geomean(others));
}

TEST(Fig17Shape, TiaAndSoftbrainSimilarOnIntensive)
{
    // "For intensive control flow benchmarks, TIA and Softbrain
    // have similar performance."
    ModelParams params;
    auto tia = makeTia(params);
    auto sb = makeSoftbrain(params);
    std::vector<double> ratios;
    for (const WorkloadProfile &p : intensiveProfiles())
        ratios.push_back(tia->run(p).cycles / sb->run(p).cycles);
    double gm = geomean(ratios);
    EXPECT_GT(gm, 0.6);
    EXPECT_LT(gm, 1.7);
}

TEST(MachineStats, RenderAllStatsCoversComponents)
{
    MachineConfig config;
    ProgramBuilder b("stats", config);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = 4;
    gen.dests = {DestSel::toPe(1, 0)};
    b.setEntry(0, 0);
    Instruction &ld = b.place(1, 0);
    ld.mode = SenderMode::Dfg;
    ld.op = Opcode::Load;
    ld.a = OperandSel::channel(0);
    ld.dests = {DestSel::toOutput(0)};
    b.setEntry(1, 0);

    MarionetteMachine m(config);
    m.load(b.finish());
    m.run();
    std::string s = m.renderAllStats();
    EXPECT_NE(s.find("machine.cycles"), std::string::npos);
    EXPECT_NE(s.find("pe0.fires"), std::string::npos);
    EXPECT_NE(s.find("pe1.fires"), std::string::npos);
    EXPECT_NE(s.find("datamesh.packets"), std::string::npos);
    EXPECT_NE(s.find("scratchpad.accesses"), std::string::npos);
}

TEST(WorkloadShape, MergeSortBranchesNearlyBalanced)
{
    // Random data: take_left vs take_right should split ~50/50.
    WorkloadProfile p = profileOf("MS");
    double l = static_cast<double>(p.trace.executions(6));
    double r = static_cast<double>(p.trace.executions(7));
    EXPECT_NEAR(l / (l + r), 0.5, 0.08);
}

TEST(WorkloadShape, CrcBranchFollowsBitDistribution)
{
    WorkloadProfile p = profileOf("CRC");
    // Block ids: 7 = poly_step, 8 = shift_step (crc.cc enum).
    double poly = static_cast<double>(p.trace.executions(7));
    double shift = static_cast<double>(p.trace.executions(8));
    // LSBs of a CRC state stream are near-uniform.
    EXPECT_NEAR(poly / (poly + shift), 0.5, 0.15);
}

TEST(WorkloadShape, ViterbiMinUpdatesAreRare)
{
    // A running-minimum update fires O(log n) times per scan, so
    // the taken path must be far below 50%.
    WorkloadProfile p = profileOf("VI");
    // Block ids: 7 = min_upd, 8 = min_skip (viterbi.cc enum).
    double upd = static_cast<double>(p.trace.executions(7));
    double skip = static_cast<double>(p.trace.executions(8));
    EXPECT_LT(upd / (upd + skip), 0.2);
}

} // namespace
} // namespace marionette

/**
 * @file
 * Performance-model tests: kernel-structure extraction exactness,
 * per-feature monotonicity (each Marionette feature can only
 * help), the paper's headline orderings, and the Fig. 15 metrics.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>

#include "model/arch_model.h"
#include "model/capability.h"
#include "model/taxonomy.h"
#include "model/eval.h"
#include "model/structure.h"
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

TEST(Structure, GemmLoopCountsAreExact)
{
    KernelStructure ks = analyzeStructure(profileOf("GEMM"));
    ASSERT_EQ(ks.loops.size(), 3u);
    std::uint64_t iters[4] = {0, 0, 0, 0};
    for (const LoopSummary &l : ks.loops)
        iters[l.depth] = l.iterations;
    EXPECT_EQ(iters[1], 64u);
    EXPECT_EQ(iters[2], 64u * 64);
    EXPECT_EQ(iters[3], 64u * 64 * 64);
}

TEST(Structure, GemmInnerLoopIsMacRecurrence)
{
    KernelStructure ks = analyzeStructure(profileOf("GEMM"));
    for (const LoopSummary &l : ks.loops) {
        if (l.depth != 3)
            continue;
        EXPECT_TRUE(l.dependence.carried);
        EXPECT_TRUE(l.dependence.macOnly);
        EXPECT_FALSE(l.dependence.viaBranch);
    }
}

TEST(Structure, CrcBitLoopHasBranchRecurrence)
{
    KernelStructure ks = analyzeStructure(profileOf("CRC"));
    bool found = false;
    for (const LoopSummary &l : ks.loops) {
        if (l.depth != 2)
            continue;
        found = true;
        EXPECT_TRUE(l.dependence.carried);
        EXPECT_TRUE(l.dependence.viaBranch);
        // The poly/shift lanes compute -> control-bound.
        EXPECT_FALSE(l.dependence.selectable);
        EXPECT_EQ(l.iterations, 64u * 8);
        EXPECT_EQ(l.rounds, 64u);
    }
    EXPECT_TRUE(found);
}

TEST(Structure, ViterbiMinLanesAreSelectable)
{
    KernelStructure ks = analyzeStructure(profileOf("VI"));
    bool found = false;
    for (const LoopSummary &l : ks.loops) {
        if (l.depth != 3)
            continue;
        found = true;
        EXPECT_TRUE(l.dependence.viaBranch);
        EXPECT_TRUE(l.dependence.selectable); // copy-only lanes.
    }
    EXPECT_TRUE(found);
}

TEST(Structure, BranchFrequenciesComeFromTrace)
{
    KernelStructure ks = analyzeStructure(profileOf("MS"));
    // take_left + take_right frequencies sum to ~1 per iteration
    // of the merge while loop.
    for (const LoopSummary &l : ks.loops) {
        double lane_freq = 0;
        bool has_lanes = false;
        for (const BodyBlock &b : l.body) {
            if (b.isBranchTarget) {
                lane_freq += b.freq;
                has_lanes = true;
            }
        }
        if (has_lanes && l.depth == 3 && l.iterations > 1000)
            EXPECT_NEAR(lane_freq, 1.0, 0.01);
    }
}

TEST(Structure, PredicatedFootprintAtLeastActual)
{
    for (const WorkloadProfile &p : allProfiles()) {
        KernelStructure ks = analyzeStructure(p);
        for (const LoopSummary &l : ks.loops) {
            EXPECT_GE(l.opsPerIterPredicated, l.opsPerIter - 1e-9)
                << p.name;
            EXPECT_GE(l.opsPerIterPredicated,
                      l.opsPerIterMerged - 1e-9)
                << p.name;
        }
    }
}

TEST(Structure, TotalOpExecutionsPositive)
{
    for (const WorkloadProfile &p : allProfiles()) {
        KernelStructure ks = analyzeStructure(p);
        EXPECT_GT(ks.totalOpExecutions, 0.0) << p.name;
    }
}

// ---- Model invariants ----

class FeatureMonotonicity
    : public ::testing::TestWithParam<const Workload *>
{
};

TEST_P(FeatureMonotonicity, EachFeatureOnlyHelps)
{
    ModelParams params;
    WorkloadProfile p = GetParam()->profile();

    Features none;
    none.proactiveConfig = false;
    none.controlNetwork = false;
    none.agileAssignment = false;
    Features pro = none;
    pro.proactiveConfig = true;
    Features net = pro;
    net.controlNetwork = true;
    Features all = net;
    all.agileAssignment = true;

    double c_none = makeMarionette(params, none)->run(p).cycles;
    double c_pro = makeMarionette(params, pro)->run(p).cycles;
    double c_net = makeMarionette(params, net)->run(p).cycles;
    double c_all = makeMarionette(params, all)->run(p).cycles;

    EXPECT_LE(c_pro, c_none * 1.0001) << "proactive hurt";
    EXPECT_LE(c_net, c_pro * 1.0001) << "control network hurt";
    EXPECT_LE(c_all, c_net * 1.0001) << "agile hurt";
}

INSTANTIATE_TEST_SUITE_P(
    Workloads, FeatureMonotonicity,
    ::testing::ValuesIn(allWorkloads()),
    [](const auto &info) { return info.param->name(); });

TEST(ModelOrdering, MarionetteBeatsEveryBaselineOnIntensiveGeomean)
{
    ModelParams params;
    Features full;
    auto mar = makeMarionette(params, full);
    auto sb = makeSoftbrain(params);
    auto tia = makeTia(params);
    auto revel = makeRevel(params);
    auto riptide = makeRiptide(params);
    std::vector<const ArchModel *> models{
        mar.get(), sb.get(), tia.get(), revel.get(),
        riptide.get()};
    auto intensive = intensiveProfiles();
    CycleTable table = runSuite(models, intensive);
    for (const ArchModel *m :
         {sb.get(), tia.get(), revel.get(), riptide.get()}) {
        double gm = speedups(table, m->name(), mar->name(),
                             intensive)
                        .back();
        EXPECT_GT(gm, 1.2) << m->name();
    }
}

TEST(ModelOrdering, HeadlineGeomeansInPaperBands)
{
    // Paper: 2.88x / 3.38x / 1.55x / 2.66x.  The reproduction must
    // land in the same bands (+-35%): same winners, same rough
    // factors, REVEL clearly the closest competitor.
    ModelParams params;
    Features full;
    auto mar = makeMarionette(params, full);
    auto sb = makeSoftbrain(params);
    auto tia = makeTia(params);
    auto revel = makeRevel(params);
    auto riptide = makeRiptide(params);
    std::vector<const ArchModel *> models{
        mar.get(), sb.get(), tia.get(), revel.get(),
        riptide.get()};
    auto intensive = intensiveProfiles();
    CycleTable table = runSuite(models, intensive);

    double vs_sb =
        speedups(table, sb->name(), mar->name(), intensive).back();
    double vs_tia =
        speedups(table, tia->name(), mar->name(), intensive)
            .back();
    double vs_revel =
        speedups(table, revel->name(), mar->name(), intensive)
            .back();
    double vs_riptide =
        speedups(table, riptide->name(), mar->name(), intensive)
            .back();

    EXPECT_NEAR(vs_sb, 2.88, 2.88 * 0.35);
    EXPECT_NEAR(vs_tia, 3.38, 3.38 * 0.35);
    EXPECT_NEAR(vs_revel, 1.55, 1.55 * 0.35);
    EXPECT_NEAR(vs_riptide, 2.66, 2.66 * 0.35);
    // REVEL is the closest competitor.
    EXPECT_LT(vs_revel, vs_sb);
    EXPECT_LT(vs_revel, vs_tia);
    EXPECT_LT(vs_revel, vs_riptide);
}

TEST(ModelOrdering, NonIntensiveKernelsAreCloseAcrossArchs)
{
    // Fig. 17 right cluster: on CO/SI/GP every architecture except
    // TIA performs comparably, and Marionette does not regress.
    ModelParams params;
    Features full;
    auto mar = makeMarionette(params, full);
    auto sb = makeSoftbrain(params);
    auto revel = makeRevel(params);
    for (const WorkloadProfile &p : allProfiles()) {
        if (p.intensive)
            continue;
        double m = mar->run(p).cycles;
        double s = sb->run(p).cycles;
        double r = revel->run(p).cycles;
        EXPECT_LT(m / s, 1.6) << p.name; // no deterioration.
        EXPECT_GT(m / s, 0.4) << p.name;
        EXPECT_LT(m / r, 1.6) << p.name;
    }
}

TEST(ModelOrdering, TiaSlowestOnNonIntensive)
{
    // Fig. 17: "all architectures have similar performance except
    // for TIA which has a longer pipeline II (dataflow PE)".
    ModelParams params;
    auto tia = makeTia(params);
    auto sb = makeSoftbrain(params);
    for (const WorkloadProfile &p : allProfiles()) {
        if (p.intensive)
            continue;
        EXPECT_GT(tia->run(p).cycles, sb->run(p).cycles * 1.2)
            << p.name;
    }
}

TEST(ModelFeatures, ControlNetworkGainMatchesFig12Band)
{
    // Paper Fig. 12: geomean 1.14x, max 1.36x (CRC-like serial
    // kernels gain the most; GEMM/HT barely move).
    ModelParams params;
    Features base;
    base.controlNetwork = false;
    base.agileAssignment = false;
    Features net = base;
    net.controlNetwork = true;
    auto m_base = makeMarionette(params, base);
    auto m_net = makeMarionette(params, net);
    auto intensive = intensiveProfiles();
    std::vector<double> gains;
    for (const WorkloadProfile &p : intensive)
        gains.push_back(m_base->run(p).cycles /
                        m_net->run(p).cycles);
    double gm = geomean(gains);
    EXPECT_NEAR(gm, 1.14, 0.12);
    // GEMM (no branches) gains little.
    double gemm_gain = m_base->run(profileOf("GEMM")).cycles /
                       m_net->run(profileOf("GEMM")).cycles;
    EXPECT_LT(gemm_gain, 1.1);
}

TEST(ModelFeatures, AgileGainMatchesFig14Band)
{
    // Paper Fig. 14: geomean 2.03x.  Our reproduction lands in the
    // 1.4-2.4 band with GEMM/HT/FFT among the big winners and
    // ADPCM (single loop) unchanged.
    ModelParams params;
    Features net;
    net.agileAssignment = false;
    Features all;
    auto m_net = makeMarionette(params, net);
    auto m_all = makeMarionette(params, all);
    auto intensive = intensiveProfiles();
    std::vector<double> gains;
    for (const WorkloadProfile &p : intensive)
        gains.push_back(m_net->run(p).cycles /
                        m_all->run(p).cycles);
    double gm = geomean(gains);
    EXPECT_GT(gm, 1.4);
    EXPECT_LT(gm, 2.4);
    double adpcm = m_net->run(profileOf("ADPCM")).cycles /
                   m_all->run(profileOf("ADPCM")).cycles;
    EXPECT_NEAR(adpcm, 1.0, 0.1);
    double gemm = m_net->run(profileOf("GEMM")).cycles /
                  m_all->run(profileOf("GEMM")).cycles;
    EXPECT_GT(gemm, 1.8);
}

TEST(ModelFig15, OuterBbUtilizationImprovesWithAgile)
{
    ModelParams params;
    Features net;
    net.agileAssignment = false;
    Features all;
    auto m_net = makeMarionette(params, net);
    auto m_all = makeMarionette(params, all);
    // Nested-loop benchmarks where the paper reports the effect.
    for (const char *name :
         {"FFT", "VI", "NW", "HT", "SCD", "LDPC", "GEMM"}) {
        const WorkloadProfile &p = profileOf(name);
        ModelResult s = m_net->run(p);
        ModelResult a = m_all->run(p);
        ASSERT_GT(s.outerBbPeUtil, 0.0) << name;
        EXPECT_GT(a.outerBbPeUtil, 3.0 * s.outerBbPeUtil)
            << name;
        EXPECT_GE(a.pipelineUtil, s.pipelineUtil * 0.99) << name;
    }
}

TEST(ModelFig15, GemmIsTheBestOuterUtilCase)
{
    // Paper: "GEMM ... obtains a utilization rate of 134x" — the
    // largest gain of the set.  Check it is our largest too.
    ModelParams params;
    Features net;
    net.agileAssignment = false;
    Features all;
    auto m_net = makeMarionette(params, net);
    auto m_all = makeMarionette(params, all);
    double best = 0;
    std::string best_name;
    for (const char *name :
         {"FFT", "VI", "NW", "HT", "SCD", "LDPC", "GEMM"}) {
        const WorkloadProfile &p = profileOf(name);
        double gain = m_all->run(p).outerBbPeUtil /
                      m_net->run(p).outerBbPeUtil;
        if (gain > best) {
            best = gain;
            best_name = name;
        }
    }
    EXPECT_TRUE(best_name == "GEMM" || best_name == "NW")
        << best_name;
    EXPECT_GT(best, 20.0);
}

TEST(Capability, MatrixMatchesTable3)
{
    const auto &m = capabilityMatrix();
    ASSERT_EQ(m.size(), 6u);
    // Only Marionette has all three properties.
    for (const Capability &c : m) {
        bool all =
            c.autonomous && c.peerToPeer && c.looselyCoupled;
        EXPECT_EQ(all, c.architecture == "Marionette");
    }
    // TIA is the only other autonomous one (Table 3).
    for (const Capability &c : m)
        if (c.architecture == "TIA")
            EXPECT_TRUE(c.autonomous);
}

TEST(Taxonomy, Table2RowCountsMatchPaper)
{
    EXPECT_EQ(taxonomyOf(PeModelClass::VonNeumann).size(), 11u);
    EXPECT_EQ(taxonomyOf(PeModelClass::Dataflow).size(), 6u);
    EXPECT_EQ(taxonomy().size(), 17u);
}

TEST(Taxonomy, BaselinesAppearInTheRightFamily)
{
    auto family_of = [](const std::string &name) {
        for (const TaxonomyEntry &e : taxonomy())
            if (e.architecture == name)
                return e.cls;
        ADD_FAILURE() << name << " missing from Table 2";
        return PeModelClass::VonNeumann;
    };
    EXPECT_EQ(family_of("Softbrain"), PeModelClass::VonNeumann);
    EXPECT_EQ(family_of("RipTide"), PeModelClass::VonNeumann);
    EXPECT_EQ(family_of("DySER"), PeModelClass::VonNeumann);
    EXPECT_EQ(family_of("Plasticine"), PeModelClass::VonNeumann);
    EXPECT_EQ(family_of("TIA"), PeModelClass::Dataflow);
    EXPECT_EQ(family_of("Wavescalar"), PeModelClass::Dataflow);
}

TEST(Taxonomy, EveryRowHasAMechanism)
{
    for (const TaxonomyEntry &e : taxonomy()) {
        EXPECT_FALSE(e.mechanism.empty()) << e.architecture;
        EXPECT_GT(e.year, 2000) << e.architecture;
    }
}

TEST(Taxonomy, RenderGroupsByFamily)
{
    std::string s = renderTaxonomy();
    auto vn_pos = s.find("von Neumann PE");
    auto df_pos = s.find("dataflow PE");
    ASSERT_NE(vn_pos, std::string::npos);
    ASSERT_NE(df_pos, std::string::npos);
    EXPECT_LT(vn_pos, df_pos);
    EXPECT_NE(s.find("Softbrain"), std::string::npos);
    EXPECT_NE(s.find("TIA"), std::string::npos);
}

TEST(Eval, GeomeanBasics)
{
    EXPECT_DOUBLE_EQ(geomean({4.0, 1.0}), 2.0);
    EXPECT_DOUBLE_EQ(geomean({3.0}), 3.0);
}

TEST(EvalDeath, GeomeanOfNothingPanics)
{
    EXPECT_DEATH(geomean({}), "geomean of an empty set");
}

TEST(Eval, SpeedupTableRendersAllColumns)
{
    ModelParams params;
    Features full;
    auto mar = makeMarionette(params, full);
    auto sb = makeSoftbrain(params);
    std::vector<const ArchModel *> models{mar.get(), sb.get()};
    auto profiles = intensiveProfiles();
    CycleTable table = runSuite(models, profiles);
    std::string s = renderSpeedupTable(
        table, sb->name(), {mar->name()}, profiles);
    for (const WorkloadProfile &p : profiles)
        EXPECT_NE(s.find(p.name), std::string::npos) << p.name;
    EXPECT_NE(s.find("GM"), std::string::npos);
}

/** The profiles of @p names, in allProfiles() order. */
std::vector<WorkloadProfile>
profilesOf(const std::set<std::string> &names)
{
    std::vector<WorkloadProfile> out;
    for (const WorkloadProfile &p : allProfiles())
        if (names.count(p.name) > 0)
            out.push_back(p);
    return out;
}

/** True when @p text shows a GM of 0.00: as the last column of a
 *  row under a speedup table's header (which ends in "GM"), or on a
 *  line that starts "GM". */
bool
showsZeroGeomean(const std::string &text)
{
    std::istringstream lines(text);
    bool in_table = false;
    for (std::string line; std::getline(lines, line);) {
        if (line.ends_with("GM")) {
            in_table = true;
            continue;
        }
        in_table = in_table && !line.empty();
        if ((in_table && line.ends_with(" 0.00")) ||
            (line.starts_with("GM ") &&
             line.find(" 0.00x") != std::string::npos))
            return true;
    }
    return false;
}

// Every artifact renders for the full suite and for paper_eval
// --kernels selections: no nested-loop kernel, LDPC or GP; LDPC
// without GP; no intensive kernel.  Fig. 17's full-LDPC composite
// needs both LDPC and GP.  No text shows a GM of 0.00.
TEST(Eval, PaperArtifactsRenderForAnyKernelSelection)
{
    ASSERT_EQ(paperArtifacts().size(), 12u);
    const std::string composite = "Full LDPC application";
    // Figs 11, 12 and 14 average intensive kernels only: a
    // selection without one says so rather than print a GM.
    const std::set<std::string> intensive_only = {"Fig 11", "Fig 12",
                                                  "Fig 14"};
    const std::string no_intensive =
        "The selection holds no intensive kernel.";
    const std::string fig11_axis =
        "Operators under branch (secondary axis):";
    struct Selection
    {
        std::vector<WorkloadProfile> profiles;
        bool hasComposite;
        bool hasIntensive;
    };
    const Selection selections[] = {
        {allProfiles(), true, true},
        {profilesOf({"SI", "CRC", "CO"}), false, true},
        {profilesOf({"LDPC", "SI"}), false, true},
        {profilesOf({"SI", "GP"}), false, false},
    };
    for (const Selection &sel : selections) {
        for (const PaperArtifact &artifact : paperArtifacts()) {
            std::string text;
            ASSERT_NO_THROW(text = artifact.render(sel.profiles))
                << artifact.name;
            EXPECT_FALSE(text.empty()) << artifact.name;
            EXPECT_NE(text.find("paper reports: "), std::string::npos)
                << artifact.name;
            if (std::string(artifact.name) == "Fig 17")
                EXPECT_EQ(text.find(composite) != std::string::npos,
                          sel.hasComposite)
                    << sel.profiles.size() << " profiles";
            if (intensive_only.count(artifact.name) > 0)
                EXPECT_EQ(text.find(no_intensive) != std::string::npos,
                          !sel.hasIntensive)
                    << artifact.name;
            // Fig. 11's secondary axis lists intensive kernels: its
            // heading goes with the rows.
            if (std::string(artifact.name) == "Fig 11") {
                EXPECT_EQ(text.find(fig11_axis) != std::string::npos,
                          sel.hasIntensive);
            }
            EXPECT_FALSE(showsZeroGeomean(text))
                << artifact.name << ", " << sel.profiles.size()
                << " profiles:\n" << text;
        }
    }
}

} // namespace
} // namespace marionette

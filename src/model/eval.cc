#include "model/eval.h"

#include <cmath>
#include <cstdarg>
#include <cstdio>
#include <iomanip>
#include <sstream>

#include "compiler/assignment.h"
#include "model/capability.h"
#include "model/taxonomy.h"
#include "net/area_model.h"
#include "net/delay_model.h"
#include "sim/logging.h"
#include "workloads/kernels.h"

namespace marionette
{

namespace
{

/** printf onto the end of @p out. */
__attribute__((format(printf, 2, 3))) void
appendf(std::string &out, const char *fmt, ...)
{
    std::va_list args;
    va_start(args, fmt);
    std::va_list size_args;
    va_copy(size_args, args);
    const int n = std::vsnprintf(nullptr, 0, fmt, size_args);
    va_end(size_args);
    const std::size_t at = out.size();
    out.resize(at + static_cast<std::size_t>(n) + 1);
    std::vsnprintf(out.data() + at, static_cast<std::size_t>(n) + 1,
                   fmt, args);
    va_end(args);
    out.resize(at + static_cast<std::size_t>(n));
}

/** The profile named @p name in @p profiles, or null. */
const WorkloadProfile *
findProfile(const std::vector<WorkloadProfile> &profiles,
            const char *name)
{
    for (const WorkloadProfile &p : profiles)
        if (p.name == name)
            return &p;
    return nullptr;
}

} // namespace

CycleTable
runSuite(const std::vector<const ArchModel *> &models,
         const std::vector<WorkloadProfile> &profiles)
{
    CycleTable table;
    for (const ArchModel *m : models) {
        auto &row = table[m->name()];
        for (const WorkloadProfile &p : profiles)
            row[p.name] = m->run(p);
    }
    return table;
}

double
geomean(const std::vector<double> &values)
{
    MARIONETTE_ASSERT(!values.empty(), "geomean of an empty set");
    double log_sum = 0.0;
    for (double v : values) {
        MARIONETTE_ASSERT(v > 0, "geomean of non-positive value");
        log_sum += std::log(v);
    }
    return std::exp(log_sum / static_cast<double>(values.size()));
}

std::vector<double>
speedups(const CycleTable &table, const std::string &baseline,
         const std::string &subject,
         const std::vector<WorkloadProfile> &profiles)
{
    std::vector<double> out;
    const auto &base = table.at(baseline);
    const auto &subj = table.at(subject);
    for (const WorkloadProfile &p : profiles)
        out.push_back(base.at(p.name).cycles /
                      subj.at(p.name).cycles);
    out.push_back(geomean(out));
    return out;
}

std::string
renderSpeedupTable(const CycleTable &table,
                   const std::string &normalize_to,
                   const std::vector<std::string> &subjects,
                   const std::vector<WorkloadProfile> &profiles)
{
    if (profiles.empty())
        return "The selection holds no intensive kernel.\n";
    std::ostringstream out;
    out << std::left << std::setw(24) << "Architecture";
    for (const WorkloadProfile &p : profiles)
        out << std::right << std::setw(7) << p.name;
    out << std::right << std::setw(7) << "GM" << '\n';
    for (const std::string &s : subjects) {
        auto sp = speedups(table, normalize_to, s, profiles);
        out << std::left << std::setw(24) << s;
        for (double v : sp)
            out << std::right << std::fixed << std::setprecision(2)
                << std::setw(7) << v;
        out << '\n';
    }
    return out.str();
}

const std::vector<WorkloadProfile> &
allProfiles()
{
    static const std::vector<WorkloadProfile> profiles = [] {
        std::vector<WorkloadProfile> out;
        for (const Workload *w : allWorkloads())
            out.push_back(w->profile());
        return out;
    }();
    return profiles;
}

std::vector<WorkloadProfile>
intensiveOf(const std::vector<WorkloadProfile> &profiles)
{
    std::vector<WorkloadProfile> out;
    for (const WorkloadProfile &p : profiles)
        if (p.intensive)
            out.push_back(p);
    return out;
}

std::vector<WorkloadProfile>
intensiveProfiles()
{
    return intensiveOf(allProfiles());
}

ModelZoo::ModelZoo()
{
    ModelParams params;
    Features base_f;
    base_f.controlNetwork = false;
    base_f.agileAssignment = false;
    Features net_f = base_f;
    net_f.controlNetwork = true;
    Features full_f;

    vonNeumann = makeVonNeumannPe(params);
    dataflow = makeDataflowPe(params);
    marionetteBase = makeMarionette(params, base_f);
    marionetteNet = makeMarionette(params, net_f);
    marionette = makeMarionette(params, full_f);
    softbrain = makeSoftbrain(params);
    tia = makeTia(params);
    revel = makeRevel(params);
    riptide = makeRiptide(params);
}

const ModelZoo &
modelZoo()
{
    static const ModelZoo zoo;
    return zoo;
}

std::string
artifactBanner(const char *artifact, const char *paper_claim)
{
    const std::string rule(61, '=');
    return rule + '\n' + artifact + "\npaper reports: " + paper_claim +
           '\n' + rule + '\n';
}

std::string
renderTable1(const std::vector<WorkloadProfile> &profiles)
{
    std::string out = artifactBanner(
        "Table 1: control flow forms across applications",
        "nested/innermost branches; imperfect nested / serial "
        "loops per Table 1");
    appendf(out, "%-12s %-18s %-28s %s\n", "Workload",
            "Intensive Branch", "Intensive Loop", "Sizes");
    for (const WorkloadProfile &p : profiles) {
        const ControlFlowProfile &cf = p.controlFlow;
        std::string loop(loopFormName(cf.loopForm));
        if (cf.alsoSerialLoops)
            loop += " + Serial Loops";
        appendf(out, "%-12s %-18s %-28s %s\n", p.name.c_str(),
                std::string(branchFormName(cf.branchForm)).c_str(),
                loop.c_str(), p.sizeDesc.c_str());
    }
    out += '\n';
    return out;
}

std::string
renderTable2(const std::vector<WorkloadProfile> &profiles)
{
    std::string out = artifactBanner(
        "Table 2: SA taxonomy by PE execution model",
        "11 von Neumann-derived and 6 dataflow-derived designs "
        "surveyed over the past decade");
    out += renderTaxonomy() + '\n';

    // The archetype models this taxonomy motivates.
    const ModelZoo &z = modelZoo();
    double vn_total = 0, df_total = 0;
    for (const WorkloadProfile &p : intensiveOf(profiles)) {
        vn_total += z.vonNeumann->run(p).cycles;
        df_total += z.dataflow->run(p).cycles;
    }
    appendf(out, "archetype totals on the intensive suite: "
                 "vonNeumannPE %.0f cycles, dataflowPE %.0f "
                 "cycles\n\n", vn_total, df_total);
    return out;
}

std::string
renderTable3()
{
    return artifactBanner("Table 3: control-flow capability matrix",
                          "only Marionette has autonomous + "
                          "peer-to-peer + loosely-coupled control") +
           renderCapabilityMatrix() + '\n';
}

std::string
renderTable4()
{
    std::string out =
        artifactBanner("Table 4: area and power breakdown (28 nm)",
                       "0.151 mm^2 / 152.09 mW total; control "
                       "network 0.0022 mm^2 / 13.89 mW");
    out += marionetteAreaBreakdown(MachineConfig{}).toString() + '\n';

    out += "scaling check (8x8 array):\n";
    MachineConfig big;
    big.rows = 8;
    big.cols = 8;
    big.nonlinearPes = 16;
    AreaBreakdown bd = marionetteAreaBreakdown(big);
    appendf(out, "  total %.4f mm^2 / %.2f mW\n\n", bd.totalAreaMm2,
            bd.totalPowerMw);
    return out;
}

std::string
renderTable6()
{
    return artifactBanner(
               "Table 6: network area comparison (28 nm, 4x4, "
               "32-bit)",
               "Marionette network 0.0118 mm^2 = 11.5% of fabric; "
               "others 47-76%") +
           toString(networkAreaComparison(MachineConfig{})) + '\n';
}

std::string
renderFig11(const std::vector<WorkloadProfile> &profiles)
{
    std::string out = artifactBanner(
        "Fig 11: PE execution models (normalized to vonNeumann)",
        "Marionette PE: 1.18x geomean over vonNeumann (max 1.45x "
        "MS), 1.33x over dataflow (max 1.76x GEMM)");
    const ModelZoo &z = modelZoo();
    auto intensive = intensiveOf(profiles);
    CycleTable table =
        runSuite({z.vonNeumann.get(), z.dataflow.get(),
                  z.marionetteBase.get()},
                 intensive);
    out += renderSpeedupTable(table, z.vonNeumann->name(),
                              {z.vonNeumann->name(),
                               z.dataflow->name(),
                               z.marionetteBase->name()},
                              intensive);
    if (!intensive.empty())
        out += "\nOperators under branch (secondary axis):\n";
    for (const WorkloadProfile &p : intensive)
        appendf(out, "  %-6s %4.0f%%\n", p.name.c_str(),
                100 * p.controlFlow.opsUnderBranch);
    out += '\n';
    return out;
}

std::string
renderFig12(const std::vector<WorkloadProfile> &profiles)
{
    std::string out = artifactBanner(
        "Fig 12: + peer-to-peer control network",
        "1.14x geomean improvement, up to 1.36x (CRC); partially-"
        "pipelined kernels (CRC/ADPCM/MS) gain most");
    const ModelZoo &z = modelZoo();
    auto intensive = intensiveOf(profiles);
    CycleTable table = runSuite(
        {z.marionetteBase.get(), z.marionetteNet.get()}, intensive);
    out += renderSpeedupTable(table, z.marionetteBase->name(),
                              {z.marionetteNet->name()}, intensive);
    out += '\n';
    return out;
}

std::string
renderFig13()
{
    return artifactBanner(
               "Fig 13: network stages vs delay vs critical path",
               "latency grows mildly with stages and frequency; "
               "\"low increase in network latency is acceptable\"") +
           toString(delaySweep()) + '\n';
}

std::string
renderFig14(const std::vector<WorkloadProfile> &profiles)
{
    std::string out = artifactBanner(
        "Fig 14: + Agile PE Assignment",
        "2.03x geomean improvement, up to 5.99x; limited by loop "
        "structure and inter-loop data dependences (LDPC)");
    const ModelZoo &z = modelZoo();
    auto intensive = intensiveOf(profiles);
    CycleTable table = runSuite(
        {z.marionetteNet.get(), z.marionette.get()}, intensive);
    out += renderSpeedupTable(table, z.marionetteNet->name(),
                              {z.marionette->name()}, intensive);

    // The scheduling decisions behind the speedup (Fig. 8).
    if (const WorkloadProfile *gemm = findProfile(profiles, "GEMM")) {
        out += "\nAgile schedule of GEMM on 16 PEs:\n";
        out += agileSchedule(gemm->cdfg, gemm->loops, 16)
                   .toString(gemm->cdfg);
    }
    out += '\n';
    return out;
}

std::string
renderFig15(const std::vector<WorkloadProfile> &profiles)
{
    std::string out = artifactBanner(
        "Fig 15: Agile PE Assignment utilization effects",
        "outer-BB PE utilization improves 21.57x on average "
        "(GEMM 134x); pipeline utilization improves 1.54x");
    const ModelZoo &z = modelZoo();
    appendf(out, "%-6s %22s %26s\n", "", "outer-BB PE util",
            "pipeline util");
    std::vector<double> outer_gains, pipe_gains;
    // The nested-loop kernels whose innermost loops pipeline.
    for (const char *name :
         {"FFT", "VI", "NW", "HT", "SCD", "LDPC", "GEMM"}) {
        const WorkloadProfile *p = findProfile(profiles, name);
        if (p == nullptr)
            continue;
        ModelResult s = z.marionetteNet->run(*p);
        ModelResult a = z.marionette->run(*p);
        double og = s.outerBbPeUtil > 0
                        ? a.outerBbPeUtil / s.outerBbPeUtil
                        : 0.0;
        double pg = s.pipelineUtil > 0
                        ? a.pipelineUtil / s.pipelineUtil
                        : 0.0;
        appendf(out, "%-6s %6.1f%% -> %6.1f%% (%5.1fx)   "
                     "%5.1f%% -> %5.1f%% (%4.2fx)\n",
                p->name.c_str(), 100 * s.outerBbPeUtil,
                100 * a.outerBbPeUtil, og, 100 * s.pipelineUtil,
                100 * a.pipelineUtil, pg);
        if (og > 0)
            outer_gains.push_back(og);
        if (pg > 0)
            pipe_gains.push_back(pg);
    }
    if (!outer_gains.empty() && !pipe_gains.empty())
        appendf(out, "%-6s outer-BB geomean %.2fx   pipeline "
                     "geomean %.2fx\n",
                "GM", geomean(outer_gains), geomean(pipe_gains));
    out += '\n';
    return out;
}

std::string
renderFig16(const std::vector<WorkloadProfile> &profiles)
{
    std::string out = artifactBanner(
        "Fig 16: control network vs Agile PE Assignment split",
        "CRC/ADPCM/MS/LDPC: network-dominated; VI/HT/SCD/GEMM: "
        "pipeline(Agile)-dominated");
    const ModelZoo &z = modelZoo();
    appendf(out, "%-8s %18s %18s %s\n", "", "network gain",
            "agile gain", "dominant");
    // Paper's x-axis order groups network-dominated first.
    for (const char *name : {"MS", "ADPCM", "CRC", "LDPC", "NW", "FFT",
                             "VI", "HT", "SCD", "GEMM"}) {
        const WorkloadProfile *p = findProfile(profiles, name);
        if (p == nullptr)
            continue;
        double base = z.marionetteBase->run(*p).cycles;
        double net = z.marionetteNet->run(*p).cycles;
        double all = z.marionette->run(*p).cycles;
        double net_gain = base / net - 1.0;
        double agile_gain = net / all - 1.0;
        const char *dominant =
            net_gain > agile_gain ? "network" : "agile";
        if (net_gain < 0.02 && agile_gain < 0.02)
            dominant = "neither";
        appendf(out, "%-8s %17.0f%% %17.0f%% %s\n", p->name.c_str(),
                100 * net_gain, 100 * agile_gain, dominant);
    }
    out += '\n';
    return out;
}

std::string
renderFig17(const std::vector<WorkloadProfile> &profiles)
{
    std::string out = artifactBanner(
        "Fig 17: vs state-of-the-art (normalized to Softbrain)",
        "Marionette geomeans on intensive kernels: 2.88x vs "
        "Softbrain, 3.38x vs TIA, 1.55x vs REVEL, 2.66x vs "
        "RipTide; non-intensive kernels at parity");
    const ModelZoo &z = modelZoo();
    const ArchModel *const rivals[] = {z.softbrain.get(), z.tia.get(),
                                       z.revel.get(),
                                       z.riptide.get()};
    CycleTable table =
        runSuite({z.softbrain.get(), z.tia.get(), z.revel.get(),
                  z.riptide.get(), z.marionette.get()},
                 profiles);
    out += renderSpeedupTable(
        table, z.softbrain->name(),
        {z.softbrain->name(), z.tia->name(), z.revel->name(),
         z.riptide->name(), z.marionette->name()},
        profiles);

    auto intensive = intensiveOf(profiles);
    if (!intensive.empty()) {
        out += "\nMarionette geomean speedups (intensive):\n";
        for (const ArchModel *m : rivals)
            appendf(out, "  vs %-10s %.2fx\n", m->name().c_str(),
                    speedups(table, m->name(), z.marionette->name(),
                             intensive)
                        .back());
    }

    // Full LDPC application (intensive decode + non-intensive
    // front-end processing), per the Fig. 17 caption.
    if (findProfile(profiles, "LDPC") && findProfile(profiles, "GP")) {
        auto composite = [&table](const std::string &arch) {
            return table.at(arch).at("LDPC").cycles +
                   table.at(arch).at("GP").cycles;
        };
        out += "\nFull LDPC application (LDPC + GP phases):\n";
        for (const ArchModel *m : rivals)
            appendf(out, "  vs %-10s %.2fx\n", m->name().c_str(),
                    composite(m->name()) /
                        composite(z.marionette->name()));
    }
    out += '\n';
    return out;
}

const std::vector<PaperArtifact> &
paperArtifacts()
{
    using Profiles = std::vector<WorkloadProfile>;
    static const std::vector<PaperArtifact> artifacts = {
        {"Table 1", renderTable1},
        {"Table 2", renderTable2},
        {"Table 3", [](const Profiles &) { return renderTable3(); }},
        {"Table 4", [](const Profiles &) { return renderTable4(); }},
        {"Table 6", [](const Profiles &) { return renderTable6(); }},
        {"Fig 11", renderFig11},
        {"Fig 12", renderFig12},
        {"Fig 13", [](const Profiles &) { return renderFig13(); }},
        {"Fig 14", renderFig14},
        {"Fig 15", renderFig15},
        {"Fig 16", renderFig16},
        {"Fig 17", renderFig17},
    };
    return artifacts;
}

} // namespace marionette

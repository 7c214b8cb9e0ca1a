/**
 * @file
 * Evaluation harness over the model zoo: runs architectures across
 * the benchmark suite, computes normalized speedups and geomeans,
 * and renders the paper's evaluation artifacts (Tables 1-4 and 6,
 * Figs. 11-17).
 *
 * Each artifact has exactly one renderer here.  Its bench binary
 * prints it for allProfiles(); paper_eval prints all of them, in
 * paperArtifacts() order, for its --kernels selection.
 */

#ifndef MARIONETTE_MODEL_EVAL_H
#define MARIONETTE_MODEL_EVAL_H

#include <map>
#include <memory>
#include <string>
#include <vector>

#include "model/arch_model.h"

namespace marionette
{

/** cycles[arch][workload]. */
using CycleTable =
    std::map<std::string, std::map<std::string, ModelResult>>;

/** Run each model on each profile.  Every model gets a row, even
 *  for an empty profile set. */
CycleTable
runSuite(const std::vector<const ArchModel *> &models,
         const std::vector<WorkloadProfile> &profiles);

/** Geometric mean of a non-empty vector of ratios (panics on an
 *  empty one: an average of nothing is not a ratio). */
double geomean(const std::vector<double> &values);

/**
 * Speedups of @p subject over @p baseline per workload (baseline
 * cycles / subject cycles), in profile order, plus the geomean
 * appended last (@p profiles must not be empty).
 */
std::vector<double>
speedups(const CycleTable &table, const std::string &baseline,
         const std::string &subject,
         const std::vector<WorkloadProfile> &profiles);

/**
 * Render a speedup table: one row per architecture (normalized to
 * @p normalize_to), columns per workload plus GM — the layout of
 * Figs. 11/12/14/17.  An empty @p profiles renders one line saying
 * the selection holds no intensive kernel.
 */
std::string
renderSpeedupTable(const CycleTable &table,
                   const std::string &normalize_to,
                   const std::vector<std::string> &subjects,
                   const std::vector<WorkloadProfile> &profiles);

/** All 13 profiles in paper order (cached after the first call —
 *  golden runs take a moment). */
const std::vector<WorkloadProfile> &allProfiles();

/** The intensive-control-flow members of @p profiles, in order. */
std::vector<WorkloadProfile>
intensiveOf(const std::vector<WorkloadProfile> &profiles);

/** The 10 intensive-control-flow profiles only. */
std::vector<WorkloadProfile> intensiveProfiles();

/** The nine models the figures compare, at default ModelParams. */
struct ModelZoo
{
    ModelZoo();

    std::unique_ptr<ArchModel> vonNeumann;
    std::unique_ptr<ArchModel> dataflow;
    std::unique_ptr<ArchModel> marionetteBase; ///< proactive only.
    std::unique_ptr<ArchModel> marionetteNet;  ///< + control net.
    std::unique_ptr<ArchModel> marionette;     ///< + agile (full).
    std::unique_ptr<ArchModel> softbrain;
    std::unique_ptr<ArchModel> tia;
    std::unique_ptr<ArchModel> revel;
    std::unique_ptr<ArchModel> riptide;
};

/** The shared zoo (built on first use). */
const ModelZoo &modelZoo();

// ---- The paper's artifacts -------------------------------------
//
// Each renderer returns the artifact's printed text: a banner with
// its title and the figure the paper reports, then the table.  The
// ones that take @p profiles draw their rows from that set (and
// its intensive subset); rows for kernels outside it are left out.

/** Banner for a printed artifact. */
std::string artifactBanner(const char *artifact,
                           const char *paper_claim);

/** Table 1: branch and loop forms per workload. */
std::string renderTable1(const std::vector<WorkloadProfile> &profiles);
/** Table 2: the PE-execution-model taxonomy, plus the two archetype
 *  models' cycle totals on the intensive kernels. */
std::string renderTable2(const std::vector<WorkloadProfile> &profiles);
/** Table 3: the control-flow capability matrix. */
std::string renderTable3();
/** Table 4: the prototype's area and power breakdown. */
std::string renderTable4();
/** Table 6: network area against state-of-the-art fabrics. */
std::string renderTable6();
/** Fig. 11: PE execution models on the intensive kernels. */
std::string renderFig11(const std::vector<WorkloadProfile> &profiles);
/** Fig. 12: + the peer-to-peer control network. */
std::string renderFig12(const std::vector<WorkloadProfile> &profiles);
/** Fig. 13: control-network stages vs delay vs critical path. */
std::string renderFig13();
/** Fig. 14: + Agile PE Assignment, with GEMM's schedule. */
std::string renderFig14(const std::vector<WorkloadProfile> &profiles);
/** Fig. 15: Agile's utilization effects on the nested kernels. */
std::string renderFig15(const std::vector<WorkloadProfile> &profiles);
/** Fig. 16: control network vs Agile split per kernel. */
std::string renderFig16(const std::vector<WorkloadProfile> &profiles);
/** Fig. 17: vs the state of the art; the full-LDPC composite
 *  needs both LDPC and GP in @p profiles. */
std::string renderFig17(const std::vector<WorkloadProfile> &profiles);

/** One artifact of the paper's evaluation section. */
struct PaperArtifact
{
    const char *name; ///< "Table 1" ... "Fig 17".
    std::string (*render)(const std::vector<WorkloadProfile> &);
};

/** The 12 artifacts in tour order: Tables 1-4 and 6, then
 *  Figs. 11-17. */
const std::vector<PaperArtifact> &paperArtifacts();

} // namespace marionette

#endif // MARIONETTE_MODEL_EVAL_H

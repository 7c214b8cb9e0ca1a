/**
 * @file
 * Evaluation harness over the model zoo: runs architectures across
 * the benchmark suite, computes normalized speedups and geomeans,
 * and renders the tables behind Figs. 11-17.
 */

#ifndef MARIONETTE_MODEL_EVAL_H
#define MARIONETTE_MODEL_EVAL_H

#include <map>
#include <string>
#include <vector>

#include "model/arch_model.h"

namespace marionette
{

/** cycles[arch][workload]. */
using CycleTable =
    std::map<std::string, std::map<std::string, ModelResult>>;

/** Run each model on each profile. */
CycleTable
runSuite(const std::vector<const ArchModel *> &models,
         const std::vector<WorkloadProfile> &profiles);

/** Geometric mean of a vector of ratios. */
double geomean(const std::vector<double> &values);

/**
 * Speedups of @p subject over @p baseline per workload (baseline
 * cycles / subject cycles), in profile order, plus the geomean
 * appended last.
 */
std::vector<double>
speedups(const CycleTable &table, const std::string &baseline,
         const std::string &subject,
         const std::vector<WorkloadProfile> &profiles);

/**
 * Render a speedup table: one row per architecture (normalized to
 * @p normalize_to), columns per workload plus GM — the layout of
 * Figs. 11/12/14/17.
 */
std::string
renderSpeedupTable(const CycleTable &table,
                   const std::string &normalize_to,
                   const std::vector<std::string> &subjects,
                   const std::vector<WorkloadProfile> &profiles);

/** All 13 profiles in paper order (cached after the first call —
 *  golden runs take a moment). */
const std::vector<WorkloadProfile> &allProfiles();

/** The 10 intensive-control-flow profiles only. */
std::vector<WorkloadProfile> intensiveProfiles();

} // namespace marionette

#endif // MARIONETTE_MODEL_EVAL_H

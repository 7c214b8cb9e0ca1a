#include "model/eval.h"

#include <cmath>
#include <iomanip>
#include <sstream>

#include "sim/logging.h"
#include "workloads/kernels.h"

namespace marionette
{

CycleTable
runSuite(const std::vector<const ArchModel *> &models,
         const std::vector<WorkloadProfile> &profiles)
{
    CycleTable table;
    for (const ArchModel *m : models)
        for (const WorkloadProfile &p : profiles)
            table[m->name()][p.name] = m->run(p);
    return table;
}

double
geomean(const std::vector<double> &values)
{
    if (values.empty())
        return 0.0;
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
intensiveProfiles()
{
    std::vector<WorkloadProfile> out;
    for (const WorkloadProfile &p : allProfiles())
        if (p.intensive)
            out.push_back(p);
    return out;
}

} // namespace marionette

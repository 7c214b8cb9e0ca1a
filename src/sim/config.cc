#include "sim/config.h"

#include <sstream>

#include "sim/logging.h"

namespace marionette
{

void
MachineConfig::validate() const
{
    if (rows <= 0 || cols <= 0)
        MARIONETTE_FATAL("PE array dimensions must be positive "
                         "(got %dx%d)", rows, cols);
    if (configLatency == 0)
        MARIONETTE_FATAL("configLatency must be at least 1 cycle");
    if (executeLatency == 0)
        MARIONETTE_FATAL("executeLatency must be at least 1 cycle");
    if (controlFifoDepth <= 0)
        MARIONETTE_FATAL("controlFifoDepth must be positive (got %d)",
                         controlFifoDepth);
    if (scratchpadBanks <= 0 || scratchpadBytes <= 0)
        MARIONETTE_FATAL("scratchpad must have positive size/banks");
    if (scratchpadBytes % scratchpadBanks != 0)
        MARIONETTE_FATAL("scratchpadBytes (%d) must divide evenly "
                         "into %d banks", scratchpadBytes,
                         scratchpadBanks);
    if (instrBufferEntries <= 1)
        MARIONETTE_FATAL("instruction buffer needs >= 2 entries");
    if (nonlinearPes < 0 || nonlinearPes > numPes())
        MARIONETTE_FATAL("nonlinearPes (%d) out of range for %d PEs",
                         nonlinearPes, numPes());
    faults.validate(rows, cols);
}

std::string
MachineConfig::summary() const
{
    std::ostringstream out;
    out << rows << "x" << cols << " PEs, "
        << scratchpadBytes / 1024 << "KiB spad/" << scratchpadBanks
        << " banks, dataNet=" << dataNetLatency
        << "c, features{proactive=" << features.proactiveConfig
        << ",ctrlnet=" << features.controlNetwork
        << ",agile=" << features.agileAssignment << "}";
    if (!faults.empty())
        out << ", faults{" << faults.summary() << "}";
    return out.str();
}

std::uint64_t
configHash(const MachineConfig &config)
{
    // FNV-1a over the architectural fields, mixed field by field so
    // reordered values cannot collide by concatenation.
    std::uint64_t h = 1469598103934665603ull;
    auto mix = [&h](std::uint64_t v) {
        h ^= v;
        h *= 1099511628211ull;
    };
    mix(static_cast<std::uint64_t>(config.rows));
    mix(static_cast<std::uint64_t>(config.cols));
    mix(config.configLatency);
    mix(config.executeLatency);
    mix(config.dataNetLatency);
    mix(config.meshHopLatency);
    mix(static_cast<std::uint64_t>(config.controlFifoDepth));
    mix(static_cast<std::uint64_t>(config.controlFifoCount));
    mix(static_cast<std::uint64_t>(config.scratchpadBytes));
    mix(static_cast<std::uint64_t>(config.scratchpadBanks));
    mix(static_cast<std::uint64_t>(config.instrMemBytes));
    mix(static_cast<std::uint64_t>(config.instrBufferEntries));
    mix(static_cast<std::uint64_t>(config.localRegs));
    mix(static_cast<std::uint64_t>(config.nonlinearPes));
    mix(static_cast<std::uint64_t>(config.clockHz));
    mix(config.features.proactiveConfig ? 1 : 0);
    mix(config.features.controlNetwork ? 2 : 0);
    mix(config.features.agileAssignment ? 4 : 0);
    // The fault plan is architectural: placement and routing depend
    // on it, so configs with different fault sets must not share a
    // program-cache entry.  (watchdogCycles is a simulator knob
    // like eventDrivenSim and stays out.)
    mix(faultPlanHash(config.faults));
    return h;
}

} // namespace marionette

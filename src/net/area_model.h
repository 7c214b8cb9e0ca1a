/**
 * @file
 * Area and power model at 28 nm.
 *
 * The paper reports silicon numbers from Synopsys DC synthesis
 * (Table 4: component breakdown of the 4x4 prototype; Table 6:
 * network-area comparison against other spatial architectures).
 * This repository substitutes an analytical model anchored to those
 * published numbers: per-unit constants are calibrated so the 4x4
 * reference configuration reproduces Table 4 exactly, and scaling to
 * other configurations follows component counts (PEs, switch counts,
 * memory bytes).  The *trends* — which Table 6 and Fig. 13 are about
 * — are preserved by construction; absolute figures away from the
 * 4x4 reference are model extrapolations, not synthesis results.
 */

#ifndef MARIONETTE_NET_AREA_MODEL_H
#define MARIONETTE_NET_AREA_MODEL_H

#include <string>
#include <vector>

#include "sim/config.h"

namespace marionette
{

/** One row of an area/power breakdown. */
struct AreaRow
{
    std::string group;
    std::string component;
    double areaMm2 = 0.0;
    double powerMw = 0.0;
};

/** Full breakdown with totals. */
struct AreaBreakdown
{
    std::vector<AreaRow> rows;
    double totalAreaMm2 = 0.0;
    double totalPowerMw = 0.0;

    /** Render as an aligned text table (Table 4 layout). */
    std::string toString() const;
};

/**
 * Compute the Marionette area/power breakdown for @p config
 * (calibrated to Table 4 at the 4x4 / 16 KiB reference point).
 */
AreaBreakdown marionetteAreaBreakdown(const MachineConfig &config);

/** One column of the Table 6 network-area comparison. */
struct NetworkAreaEntry
{
    std::string architecture;
    double peAreaMm2 = 0.0;
    double networkAreaMm2 = 0.0;
    /** PE + network. */
    double computingFabricMm2 = 0.0;
    /** network / fabric. */
    double networkRatio = 0.0;
    /** True for rows quoted from the cited publications. */
    bool fromLiterature = false;
};

/**
 * Table 6: network area of state-of-the-art architectures
 * (normalized to 28 nm, 32-bit, 4x4 PE array), with Marionette's
 * column computed from this model.
 */
std::vector<NetworkAreaEntry>
networkAreaComparison(const MachineConfig &config);

/** Render the comparison (Table 6 layout). */
std::string toString(const std::vector<NetworkAreaEntry> &table);

} // namespace marionette

#endif // MARIONETTE_NET_AREA_MODEL_H

/**
 * @file
 * Unit tests for the simulation kernel: stats, RNG determinism and
 * machine-configuration validation.
 */

#include <gtest/gtest.h>

#include <set>

#include "sim/config.h"
#include "sim/rng.h"
#include "sim/stats.h"

namespace marionette
{
namespace
{

TEST(Stats, CountersStartAtZero)
{
    StatGroup g("test");
    EXPECT_EQ(g.value("anything"), 0u);
}

TEST(Stats, IncAccumulates)
{
    StatGroup g("test");
    g.stat("x").inc();
    g.stat("x").inc(4);
    EXPECT_EQ(g.value("x"), 5u);
}

TEST(Stats, SetOverwrites)
{
    StatGroup g("test");
    g.stat("x").inc(10);
    g.stat("x").set(3);
    EXPECT_EQ(g.value("x"), 3u);
}

TEST(Stats, MaxTracksRunningMaximum)
{
    StatGroup g("test");
    g.stat("m").max(5);
    g.stat("m").max(2);
    g.stat("m").max(9);
    EXPECT_EQ(g.value("m"), 9u);
}

TEST(Stats, ResetAllClearsEverything)
{
    StatGroup g("test");
    g.stat("a").inc(7);
    g.stat("b").inc(9);
    g.resetAll();
    EXPECT_EQ(g.value("a"), 0u);
    EXPECT_EQ(g.value("b"), 0u);
}

/** A capture keeps a stat that was written, even with value 0 (it
 *  still renders), and drops the untouched ones; restoring resets
 *  every stat the capture lacks to the untouched zero state. */
TEST(Stats, RestoreKeepsTouchedZeroAndResetsTheRest)
{
    StatGroup source("g");
    source.stat("zero").set(0);
    source.stat("five").inc(5);
    source.stat("idle"); // registered, never written.
    const StatGroupState state = source.captureState();
    EXPECT_EQ(state.stats.size(), 2u);

    StatGroup target("g");
    target.stat("five").inc(1);
    target.stat("idle").inc(7);
    target.stat("other").inc(9);
    target.restoreState(state);
    std::vector<std::string> lines;
    target.render(lines);
    EXPECT_EQ(lines, (std::vector<std::string>{"g.five 5", "g.zero 0"}));
}

TEST(Stats, RenderSortsByNameWithPrefix)
{
    StatGroup g("pe3");
    g.stat("zeta").inc(1);
    g.stat("alpha").inc(2);
    std::vector<std::string> lines;
    g.render(lines);
    ASSERT_EQ(lines.size(), 2u);
    EXPECT_EQ(lines[0], "pe3.alpha 2");
    EXPECT_EQ(lines[1], "pe3.zeta 1");
}

TEST(Stats, RenderStatsJoinsGroups)
{
    StatGroup a("a"), b("b");
    a.stat("x").inc(1);
    b.stat("y").inc(2);
    std::string out = renderStats({&a, &b});
    EXPECT_NE(out.find("a.x 1"), std::string::npos);
    EXPECT_NE(out.find("b.y 2"), std::string::npos);
}

TEST(Rng, SameSeedSameSequence)
{
    Rng a(123), b(123);
    for (int i = 0; i < 100; ++i)
        EXPECT_EQ(a.next64(), b.next64());
}

TEST(Rng, DifferentSeedsDiverge)
{
    Rng a(1), b(2);
    int differing = 0;
    for (int i = 0; i < 32; ++i)
        differing += a.next64() != b.next64();
    EXPECT_GT(differing, 28);
}

TEST(Rng, BoundedStaysInBounds)
{
    Rng r(7);
    for (int i = 0; i < 1000; ++i)
        EXPECT_LT(r.nextBounded(17), 17u);
}

TEST(Rng, RangeIsInclusive)
{
    Rng r(9);
    std::set<std::int64_t> seen;
    for (int i = 0; i < 2000; ++i) {
        auto v = r.nextRange(-3, 3);
        EXPECT_GE(v, -3);
        EXPECT_LE(v, 3);
        seen.insert(v);
    }
    EXPECT_EQ(seen.size(), 7u); // all values hit.
}

TEST(Rng, DoubleInUnitInterval)
{
    Rng r(11);
    for (int i = 0; i < 1000; ++i) {
        double d = r.nextDouble();
        EXPECT_GE(d, 0.0);
        EXPECT_LT(d, 1.0);
    }
}

TEST(Config, DefaultsValidate)
{
    MachineConfig config;
    config.validate(); // must not exit.
    EXPECT_EQ(config.numPes(), 16);
}

TEST(Config, SummaryMentionsShape)
{
    MachineConfig config;
    EXPECT_NE(config.summary().find("4x4"), std::string::npos);
}

TEST(ConfigDeath, RejectsZeroRows)
{
    MachineConfig config;
    config.rows = 0;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "dimensions");
}

TEST(ConfigDeath, RejectsUnevenBanking)
{
    MachineConfig config;
    config.scratchpadBytes = 1000;
    config.scratchpadBanks = 3;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "divide evenly");
}

TEST(ConfigDeath, RejectsTooManyNonlinearPes)
{
    MachineConfig config;
    config.nonlinearPes = 17;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "nonlinearPes");
}

TEST(ConfigDeath, RejectsZeroConfigLatency)
{
    MachineConfig config;
    config.configLatency = 0;
    EXPECT_EXIT(config.validate(), ::testing::ExitedWithCode(1),
                "configLatency");
}

} // namespace
} // namespace marionette

/**
 * @file
 * Self-tests of the benchmark's own arithmetic (ledger.h):
 * nearest-rank percentiles and the ten-beyond rule, schedule
 * determinism and exact shares, span self time,
 * the compiler-timings parser, and CPU-clock deltas.
 */

#include <gtest/gtest.h>

#include <chrono>
#include <ctime>
#include <map>
#include <set>
#include <sstream>
#include <thread>

#include "ledger.h"

using namespace perfbench;

TEST(Percentile, NearestRankOnSmallSamples)
{
    EXPECT_EQ(nearestRank(0, 0.5), 0u);
    EXPECT_EQ(nearestRank(1, 0.5), 1u);
    EXPECT_EQ(nearestRank(10, 0.5), 5u);
    EXPECT_EQ(nearestRank(10, 0.9), 9u);
    EXPECT_EQ(nearestRank(11, 0.5), 6u);
    EXPECT_EQ(nearestRank(100, 0.9), 90u); // 0.9 * 100 rounds above 90
    EXPECT_EQ(nearestRank(4, 1.0), 4u);
    EXPECT_EQ(nearestRank(4, 0.0), 1u);

    EXPECT_EQ(percentile({}, 0.5), 0.0);
    EXPECT_EQ(percentile({5, 1, 4, 2, 3}, 0.5), 3.0);
    EXPECT_EQ(percentile({5, 1, 4, 2, 3, 6}, 0.5), 3.0);
    EXPECT_EQ(percentile({1, 2, 3, 4, 5, 6, 7, 8, 9, 10}, 0.9), 9.0);
    EXPECT_EQ(percentile({7}, 0.9), 7.0);
}

TEST(Percentile, TenBeyondRule)
{
    EXPECT_EQ(samplesBeyond(100, 0.9), 10u);
    EXPECT_EQ(samplesBeyond(99, 0.9), 9u);
    EXPECT_TRUE(percentileSupported(100, 0.9));
    EXPECT_FALSE(percentileSupported(99, 0.9));
    EXPECT_TRUE(percentileSupported(20, 0.5));
    EXPECT_FALSE(percentileSupported(19, 0.5));
    EXPECT_FALSE(percentileSupported(0, 0.5));
    EXPECT_TRUE(percentileSupported(1000, 0.99));
    EXPECT_FALSE(percentileSupported(999, 0.99));
}

TEST(Percentile, Grouped)
{
    const auto lower = groupPercentile(
        {"a", "b", "a", "a", "b", "a"}, {4, 30, 1, 3, 10, 2}, 0.25);
    ASSERT_EQ(lower.size(), 2u);
    EXPECT_EQ(lower.at("a"), 1.0);
    EXPECT_EQ(lower.at("b"), 10.0);
    EXPECT_EQ(groupPercentile({"a", "a", "a", "a", "a", "a", "a",
                               "a", "a", "a", "a"},
                              {11, 10, 9, 8, 7, 6, 5, 4, 3, 2, 1},
                              0.10)
                  .at("a"),
              2.0);
}

TEST(Percentile, GeomeanAndSum)
{
    EXPECT_DOUBLE_EQ(geomean({2, 8}), 4.0);
    EXPECT_DOUBLE_EQ(geomean({5}), 5.0);
    EXPECT_EQ(geomean({}), 0.0);
    EXPECT_DOUBLE_EQ(sum({1.5, 2.5}), 4.0);
}

namespace
{

const std::vector<Share> kServeMix = {
    {"SI", 3}, {"CRC", 3}, {"SCD", 2}, {"ADPCM", 2}};

std::vector<Request>
rounds(std::uint64_t seed, int n)
{
    Schedule schedule(kServeMix, seed);
    std::vector<Request> out;
    for (int r = 0; r < n; ++r)
        for (const Request &request : schedule.nextRound())
            out.push_back(request);
    return out;
}

bool
sameRequests(const std::vector<Request> &a,
             const std::vector<Request> &b)
{
    if (a.size() != b.size())
        return false;
    for (std::size_t i = 0; i < a.size(); ++i)
        if (a[i].kernel != b[i].kernel || a[i].tenant != b[i].tenant)
            return false;
    return true;
}

} // namespace

TEST(Schedule, SameSeedSameRequests)
{
    EXPECT_TRUE(sameRequests(rounds(7, 20), rounds(7, 20)));
    EXPECT_FALSE(sameRequests(rounds(7, 20), rounds(8, 20)));
}

TEST(Schedule, EveryRoundHasExactShares)
{
    for (std::uint64_t seed : {0ull, 1ull, 2ull, 12345ull}) {
        Schedule schedule(kServeMix, seed);
        EXPECT_EQ(schedule.roundSize(), 10);
        for (int r = 0; r < 50; ++r) {
            std::map<std::string, int> seen;
            for (const Request &request : schedule.nextRound())
                ++seen[request.kernel];
            for (const Share &share : kServeMix)
                EXPECT_EQ(seen[share.kernel], share.count)
                    << "seed " << seed << " round " << r;
        }
    }
}

TEST(Schedule, SeedOrdersRequestsAndTenantsAreZipf)
{
    std::set<std::string> firstRounds;
    for (std::uint64_t seed = 0; seed < 20; ++seed) {
        std::string order;
        for (const Request &request : rounds(seed, 1))
            order += request.kernel + ",";
        firstRounds.insert(order);
    }
    EXPECT_GT(firstRounds.size(), 10u);

    std::vector<int> perTenant(8, 0);
    for (const Request &request : rounds(3, 1000)) {
        ASSERT_GE(request.tenant, 0);
        ASSERT_LT(request.tenant, 8);
        ++perTenant[static_cast<std::size_t>(request.tenant)];
    }
    // Zipf(1.1) over 8 tenants: tenant 0 draws ~38 %, tenant 7 ~4 %.
    EXPECT_GT(perTenant[0], 3300);
    EXPECT_LT(perTenant[0], 4300);
    EXPECT_GT(perTenant[0], perTenant[1]);
    EXPECT_GT(perTenant[1], perTenant[7]);
    EXPECT_GT(perTenant[7], 0);
}

TEST(Tracer, SelfTimeSubtractsCoveredChildIntervals)
{
    Tracer tracer;
    const int root = tracer.add("request", 0.0, 10.0, -1, 0);
    tracer.add("compile", 1.0, 4.0, root, 0);
    tracer.add("run", 3.0, 6.0, root, 0); // overlaps compile by 1
    tracer.add("validate", 9.0, 12.0, root, 0); // sticks out by 2
    // Covered: [1,6] + [9,10] = 6 of 10.
    EXPECT_DOUBLE_EQ(tracer.selfSeconds(root), 4.0);
    EXPECT_DOUBLE_EQ(tracer.selfSeconds(1), 3.0);

    const int lone = tracer.add("build", 20.0, 21.5, -1, -1);
    EXPECT_DOUBLE_EQ(tracer.selfSeconds(lone), 1.5);
}

TEST(Tracer, OpenSpansNestUnderTheInnermost)
{
    Tracer tracer;
    {
        SpanScope request(tracer, "request", 3);
        {
            SpanScope compile(tracer, "compile", 3);
        }
        SpanScope run(tracer, "run", 3);
    }
    SpanScope next(tracer, "request", 4);
    const auto &spans = tracer.spans();
    ASSERT_EQ(spans.size(), 4u);
    EXPECT_EQ(spans[0].parent, -1);
    EXPECT_EQ(spans[1].parent, 0);
    EXPECT_EQ(spans[2].parent, 0);
    EXPECT_EQ(spans[3].parent, -1);
    EXPECT_EQ(spans[3].request, 4);
    EXPECT_LE(spans[0].start, spans[1].start);
    EXPECT_LE(spans[1].end, spans[2].start);
    EXPECT_LE(spans[2].end, spans[0].end);
    EXPECT_GE(tracer.selfSeconds(0), 0.0);
}

TEST(Tracer, ChromeTraceHasOneEventPerSpan)
{
    Tracer tracer;
    const int root = tracer.add("request", 1.0, 1.002, -1, 0);
    tracer.add("run", 1.0005, 1.0015, root, 0);
    std::ostringstream out;
    tracer.writeChromeTrace(out);
    const std::string json = out.str();
    EXPECT_NE(json.find("\"traceEvents\""), std::string::npos);
    EXPECT_NE(json.find("\"name\":\"run\",\"ph\":\"X\""),
              std::string::npos);
    EXPECT_NE(json.find("\"ts\":500.000"), std::string::npos);
    EXPECT_NE(json.find("\"dur\":1000.000"), std::string::npos);
    EXPECT_NE(json.find("\"parent\":0"), std::string::npos);
}

TEST(PassTimings, ParsesTheCompilerNote)
{
    const auto passes = parsePassTimings(
        "analyze 12us, predicate 3us, place 41000us, bogus, emit x");
    ASSERT_EQ(passes.size(), 3u);
    EXPECT_EQ(passes[0].first, "analyze");
    EXPECT_DOUBLE_EQ(passes[0].second, 12e-6);
    EXPECT_EQ(passes[2].first, "place");
    EXPECT_DOUBLE_EQ(passes[2].second, 0.041);
    EXPECT_TRUE(parsePassTimings("").empty());
}

TEST(Clock, CpuDeltaCountsWorkNotSleep)
{
    using namespace std::chrono_literals;
    const double cpu0 = cpuSeconds();
    std::this_thread::sleep_for(100ms);
    const double slept = cpuSeconds() - cpu0;
    EXPECT_GE(slept, 0.0);
    EXPECT_LT(slept, 0.05);

    const double wall0 = wallSeconds();
    const double cpu1 = cpuSeconds();
    volatile std::uint64_t sink = 0;
    while (wallSeconds() - wall0 < 0.1)
        sink = sink + 1;
    const double spun = cpuSeconds() - cpu1;
    EXPECT_GT(spun, 0.05);
    EXPECT_LT(spun, 0.2);
}

TEST(Clock, CpuSecondsCoverEveryThread)
{
    // Each thread burns 50 ms of its own CPU time, wherever the
    // scheduler puts it; the process clock must count both.
    auto burn = [] {
        auto threadCpu = [] {
            timespec ts{};
            clock_gettime(CLOCK_THREAD_CPUTIME_ID, &ts);
            return static_cast<double>(ts.tv_sec) +
                   static_cast<double>(ts.tv_nsec) * 1e-9;
        };
        const double start = threadCpu();
        volatile std::uint64_t sink = 0;
        while (threadCpu() - start < 0.05)
            sink = sink + 1;
    };
    const double cpu0 = cpuSeconds();
    std::thread other(burn);
    burn();
    other.join();
    EXPECT_GE(cpuSeconds() - cpu0, 0.1);
}

TEST(Clock, PeakRssGrowsWithTouchedMemory)
{
    const double before = peakRssMb();
    EXPECT_GT(before, 0.0);
    std::vector<char> block(64 << 20, 1);
    for (std::size_t i = 0; i < block.size(); i += 4096)
        block[i] = static_cast<char>(i);
    EXPECT_GE(peakRssMb(), before + 60);
    EXPECT_EQ(block[4096], 0); // keeps the block alive
}

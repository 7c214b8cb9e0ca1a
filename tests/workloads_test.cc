/**
 * @file
 * Workload tests: golden-implementation regression checksums
 * (deterministic seeds make them exact), digests of the machine-run
 * data and the full trace, trace/loop-statistic consistency, and
 * Table 5 data sizes.
 */

#include <gtest/gtest.h>

#include "workloads/kernels.h"

namespace marionette
{
namespace
{

struct GoldenCase
{
    const char *name;
    std::uint64_t checksum;
    std::uint64_t traceEvents;
    std::uint64_t traceRuns;
    /** FNV-1a over every machineSpec() field (specDigest). */
    std::uint64_t specDigest;
    /** FNV-1a over runGolden()'s trace runs, rounds and
     *  iterations (traceDigest). */
    std::uint64_t traceDigest;
};

/** 64-bit FNV-1a over a stream of integers and strings; a
 *  container contributes its size before its elements, so
 *  different shapes with the same elements differ. */
class Fnv1a
{
  public:
    void
    add(std::uint64_t v)
    {
        for (int i = 0; i < 8; ++i) {
            h_ ^= (v >> (8 * i)) & 0xffu;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    add(const std::string &s)
    {
        add(s.size());
        for (unsigned char c : s) {
            h_ ^= c;
            h_ *= 0x100000001b3ull;
        }
    }

    void
    add(const std::vector<Word> &v)
    {
        add(v.size());
        for (Word w : v)
            add(static_cast<std::uint64_t>(static_cast<UWord>(w)));
    }

    template <class V>
    void
    add(const std::map<std::string, V> &m)
    {
        add(m.size());
        for (const auto &[k, v] : m) {
            add(k);
            addValue(v);
        }
    }

    std::uint64_t value() const { return h_; }

  private:
    void
    addValue(Word w)
    {
        add(static_cast<std::uint64_t>(static_cast<UWord>(w)));
    }
    void addValue(const std::string &s) { add(s); }
    void
    addValue(const MachineLoopBound &b)
    {
        addValue(b.start);
        addValue(b.bound);
        addValue(b.step);
    }
    void addValue(const std::map<std::string, Word> &m) { add(m); }

    std::uint64_t h_ = 0xcbf29ce484222325ull;
};

std::uint64_t
specDigest(const WorkloadMachineSpec &s)
{
    Fnv1a h;
    h.add(s.available ? 1u : 0u);
    h.add(s.loopBounds);
    h.add(s.whileBounds);
    h.add(s.roundResets);
    h.add(s.inductionPorts);
    h.add(s.arrayBases);
    h.add(s.scalars);
    h.add(s.memoryImage);
    h.add(s.parallelLoops.size());
    for (const std::string &l : s.parallelLoops)
        h.add(l);
    h.add(s.observePorts.size());
    for (const std::string &p : s.observePorts)
        h.add(p);
    h.add(s.expectedOutputs.size());
    for (const std::vector<Word> &o : s.expectedOutputs)
        h.add(o);
    h.add(s.expectedMemory.size());
    for (const MemoryRegionCheck &m : s.expectedMemory) {
        h.add(m.label);
        h.add(static_cast<std::uint64_t>(m.base));
        h.add(m.expect);
    }
    return h.value();
}

std::uint64_t
traceDigest(const KernelRecorder &rec)
{
    Fnv1a h;
    h.add(rec.trace().runs().size());
    for (const TraceRun &r : rec.trace().runs()) {
        h.add(static_cast<std::uint64_t>(r.block));
        h.add(r.count);
    }
    for (const auto *counts :
         {&rec.allRounds(), &rec.allIterations()}) {
        h.add(counts->size());
        for (const auto &[header, n] : *counts) {
            h.add(static_cast<std::uint64_t>(header));
            h.add(n);
        }
    }
    return h.value();
}

class Golden : public ::testing::TestWithParam<GoldenCase>
{
};

TEST_P(Golden, ChecksumAndTraceShapeStable)
{
    const GoldenCase &t = GetParam();
    const Workload *w = findWorkload(t.name);
    ASSERT_NE(w, nullptr);
    KernelRecorder rec;
    std::uint64_t sum = w->runGolden(rec);
    EXPECT_EQ(sum, t.checksum) << t.name;
    EXPECT_EQ(rec.trace().totalEvents(), t.traceEvents) << t.name;
    EXPECT_EQ(rec.trace().runs().size(), t.traceRuns) << t.name;
}

// Pins the machine-run data (memory image, golden streams, final
// memory, layout) and the trace's content, not only its size: a
// golden shared by runGolden() and machineSpec() must leave both
// exactly as they are.
TEST_P(Golden, MachineSpecAndTraceStable)
{
    const GoldenCase &t = GetParam();
    const Workload *w = findWorkload(t.name);
    ASSERT_NE(w, nullptr);
    EXPECT_EQ(specDigest(w->machineSpec()), t.specDigest) << t.name;
    KernelRecorder rec;
    w->runGolden(rec);
    EXPECT_EQ(traceDigest(rec), t.traceDigest) << t.name;
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, Golden,
    ::testing::Values(
        GoldenCase{"MS", 0xe9edcffa08b717e2ull, 32239, 31964,
                   0x0243cfa845185aa5ull,
                   0xe237fd5530be9f71ull},
        GoldenCase{"FFT", 0xc62a189c22c95047ull, 11285, 7188,
                   0x0243cfa845185aa5ull,
                   0x7b3b059a14b8c508ull},
        GoldenCase{"VI", 0x4aa1630e3dac0ff8ull, 2330024, 2329885,
                   0x5346f2613ada368eull,
                   0xac786344e8487875ull},
        GoldenCase{"NW", 0xda06dc76edff3732ull, 82308, 82181,
                   0xe3e9a4d42bb778a3ull,
                   0x490ef9f78cd13760ull},
        GoldenCase{"HT", 0xe4c59d911f2cb102ull, 352863, 66642,
                   0x0827ee5597b5d683ull,
                   0x0118a78e7402745cull},
        GoldenCase{"CRC", 0xef7c311aull, 1796, 1733,
                   0x413a94ace8ee8b37ull,
                   0x765cd2886b449393ull},
        GoldenCase{"ADPCM", 0xca107c06aa1aceaull, 18003, 18003,
                   0x5f8a06eccd694a17ull,
                   0x923f5f675fe1311aull},
        GoldenCase{"SCD", 0x39250b9d2af0053dull, 44035, 14338,
                   0x910961fca09d4766ull,
                   0xe57c9a79bfbce588ull},
        GoldenCase{"LDPC", 0x1e33da8a88441023ull, 49492, 40552,
                   0x1663ea565766454eull,
                   0x123cdf3e9a382b2eull},
        GoldenCase{"GEMM", 0x168ea3609ef5727cull, 274563, 16515,
                   0x9cf9d61b86bfe143ull,
                   0xeaf1fdcc52972e2bull},
        GoldenCase{"CO", 0xc2778c3dfa9280f6ull, 16387, 4,
                   0x7c13bc0bccdfa9a8ull,
                   0xcf01d4cc14add8a1ull},
        GoldenCase{"SI", 0x9cbcf5a382996821ull, 2051, 4,
                   0xdfd813296e7df89eull,
                   0xbd5e5546cabff0a1ull},
        GoldenCase{"GP", 0x2738e37566fdc9a5ull, 16387, 4,
                   0xb1486b6b0c97fd55ull,
                   0xcf01d4cc14add8a1ull}),
    [](const auto &info) { return std::string(info.param.name); });

TEST(Registry, ThirteenWorkloadsInPaperOrder)
{
    const auto &all = allWorkloads();
    ASSERT_EQ(all.size(), 13u);
    const char *order[] = {"MS",  "FFT",   "VI",  "NW", "HT",
                           "CRC", "ADPCM", "SCD", "LDPC",
                           "GEMM", "CO",   "SI",  "GP"};
    for (std::size_t i = 0; i < all.size(); ++i)
        EXPECT_EQ(all[i]->name(), order[i]) << i;
}

TEST(Registry, LookupByAbbreviationAndFullName)
{
    EXPECT_EQ(findWorkload("GEMM"), &gemmWorkload());
    EXPECT_EQ(findWorkload("Merge Sort"), &mergeSortWorkload());
    EXPECT_EQ(findWorkload("nope"), nullptr);
}

TEST(Registry, Table5SizesQuoted)
{
    EXPECT_EQ(mergeSortWorkload().sizeDesc(), "1024");
    EXPECT_EQ(fftWorkload().sizeDesc(), "1024 points");
    EXPECT_EQ(viterbiWorkload().sizeDesc(),
              "64 stages; 140 obs; 64 tokens");
    EXPECT_EQ(nwWorkload().sizeDesc(), "128 x 128");
    EXPECT_EQ(houghWorkload().sizeDesc(), "120 x 180");
    EXPECT_EQ(crcWorkload().sizeDesc(), "64 bytes");
    EXPECT_EQ(adpcmWorkload().sizeDesc(), "2000 bytes");
    EXPECT_EQ(scDecodeWorkload().sizeDesc(), "2048 channels");
    EXPECT_EQ(ldpcWorkload().sizeDesc(),
              "20 iters; 128 code length");
    EXPECT_EQ(gemmWorkload().sizeDesc(), "64 x 64");
    EXPECT_EQ(conv1dWorkload().sizeDesc(), "16384");
    EXPECT_EQ(sigmoidWorkload().sizeDesc(), "2048");
    EXPECT_EQ(grayWorkload().sizeDesc(), "16384");
}

TEST(Registry, IntensiveGroupingMatchesSec62)
{
    int intensive = 0;
    for (const Workload *w : allWorkloads())
        intensive += w->intensiveControlFlow();
    EXPECT_EQ(intensive, 10);
    EXPECT_FALSE(conv1dWorkload().intensiveControlFlow());
    EXPECT_FALSE(sigmoidWorkload().intensiveControlFlow());
    EXPECT_FALSE(grayWorkload().intensiveControlFlow());
}

class ProfileConsistency
    : public ::testing::TestWithParam<const Workload *>
{
};

TEST_P(ProfileConsistency, CdfgValidatesAndMatchesTrace)
{
    WorkloadProfile p = GetParam()->profile();
    p.cdfg.validate();
    // Every traced block id exists in the CDFG.
    for (const TraceRun &r : p.trace.runs()) {
        EXPECT_GE(r.block, 0);
        EXPECT_LT(r.block, p.cdfg.numBlocks());
    }
    // Every loop with recorded rounds is a real loop header.
    for (const auto &[header, rounds] : p.loopRounds) {
        EXPECT_EQ(p.cdfg.block(header).kind,
                  BlockKind::LoopHeader)
            << p.name << " block " << header;
        EXPECT_GT(rounds, 0u);
    }
}

TEST_P(ProfileConsistency, IterationsAtLeastRounds)
{
    WorkloadProfile p = GetParam()->profile();
    for (const auto &[header, rounds] : p.loopRounds) {
        auto it = p.loopIterations.find(header);
        if (it == p.loopIterations.end())
            continue; // all rounds may be empty.
        // A round has >= 0 iterations; iterations need at least
        // one round to happen.
        EXPECT_GT(rounds, 0u);
    }
    for (const auto &[header, iters] : p.loopIterations) {
        EXPECT_GT(p.roundsOf(header), 0u)
            << p.name << " header " << header;
        EXPECT_GT(iters, 0u);
    }
}

TEST_P(ProfileConsistency, LoopAnalysisSeesEveryTracedLoop)
{
    WorkloadProfile p = GetParam()->profile();
    for (const auto &[header, rounds] : p.loopRounds) {
        bool found = false;
        for (const Loop &l : p.loops.loops())
            found |= l.header == header;
        EXPECT_TRUE(found) << p.name << " header " << header;
    }
}

INSTANTIATE_TEST_SUITE_P(
    AllWorkloads, ProfileConsistency,
    ::testing::ValuesIn(allWorkloads()),
    [](const auto &info) { return info.param->name(); });

TEST(KnownCounts, GemmIterationTotals)
{
    WorkloadProfile p = gemmWorkload().profile();
    std::uint64_t total_iters = 0;
    for (const auto &kv : p.loopIterations)
        total_iters += kv.second;
    EXPECT_EQ(total_iters, 64u + 64 * 64 + 64ull * 64 * 64);
}

TEST(KnownCounts, CrcBitLoopRuns512Iterations)
{
    WorkloadProfile p = crcWorkload().profile();
    std::uint64_t max_iters = 0;
    for (const auto &kv : p.loopIterations)
        max_iters = std::max(max_iters, kv.second);
    EXPECT_EQ(max_iters, 512u); // 64 bytes x 8 bits.
}

TEST(KnownCounts, HoughEdgeFractionReasonable)
{
    // The synthetic image targets roughly 8-14% edge pixels.
    WorkloadProfile p = houghWorkload().profile();
    std::uint64_t theta_rounds = 0;
    for (const Loop &l : p.loops.loops())
        if (l.depth == 3)
            theta_rounds = p.roundsOf(l.header);
    double frac =
        static_cast<double>(theta_rounds) / (120.0 * 180.0);
    EXPECT_GT(frac, 0.05);
    EXPECT_LT(frac, 0.20);
}

TEST(KernelRecorder, CountsRoundsAndIterationsIndependently)
{
    KernelRecorder rec;
    rec.round(3);
    rec.iteration(3);
    rec.iteration(3);
    rec.round(3);
    rec.iteration(3);
    EXPECT_EQ(rec.rounds(3), 2u);
    EXPECT_EQ(rec.iterations(3), 3u);
    EXPECT_EQ(rec.rounds(9), 0u);
}

} // namespace
} // namespace marionette

/**
 * @file
 * Backend tests: the placement-and-routing subsystem carved out of
 * emit.
 *
 *  - determinism: the cost placer's iterated local search is keyed
 *    by workload name only, so every compile — repeated, or racing
 *    on several threads — produces the identical binary;
 *  - pinned layouts: the placer's program and place note, byte for
 *    byte, on the evaluation fabric and four variants of it;
 *  - rewrites: fences fuse into their loads before the capacity
 *    check counts PEs, and CRC's byte select folds;
 *  - route plan exactness: every routed edge's latency and path,
 *    and every link's predicted load on the serving mix, must
 *    match what the cycle-accurate DataMesh actually charges;
 *  - one timing model: the II the route pass reports for a phase
 *    is the one the placer scored it at;
 *  - the quiescence fix the cost placer exposed: a word still in
 *    flight on a long mesh route must hold the machine open past
 *    the idle grace window.
 */

#include <gtest/gtest.h>

#include <set>
#include <sstream>
#include <thread>

#include "arch/machine.h"
#include "compiler/backend/mapping.h"
#include "compiler/compiler.h"
#include "compiler/pass_manager.h"
#include "compiler/pipeline.h"
#include "compiler/program_builder.h"
#include "isa/encoding.h"

namespace marionette
{
namespace
{

std::string
placeNote(const CompileReport &report)
{
    std::string all;
    for (const CompilerPassNote &n : report.notes)
        if (n.pass == "place")
            all += n.message + "\n";
    return all;
}

// ------------------------------------------------------------------
// Determinism: same binary every compile, on any thread.
// ------------------------------------------------------------------

TEST(Placement, DeterministicAcrossRunsAndThreads)
{
    MachineConfig config = evalFabric();
    auto encode = [&](const char *kernel) {
        CompileResult r = Compiler(config).compile(kernel);
        EXPECT_TRUE(r.ok()) << r.report.toString();
        return encodeProgram(r.kernel->program);
    };

    for (const char *kernel : {"NW", "LDPC", "CRC"}) {
        std::vector<std::uint32_t> reference = encode(kernel);
        EXPECT_EQ(encode(kernel), reference) << kernel;

        std::vector<std::vector<std::uint32_t>> from_threads(4);
        std::vector<std::thread> pool;
        for (int t = 0; t < 4; ++t)
            pool.emplace_back([&, t] {
                CompileResult r =
                    Compiler(config).compile(kernel);
                if (r.ok())
                    from_threads[static_cast<std::size_t>(t)] =
                        encodeProgram(r.kernel->program);
            });
        for (std::thread &t : pool)
            t.join();
        for (const auto &enc : from_threads)
            EXPECT_EQ(enc, reference) << kernel;
    }
}

// ------------------------------------------------------------------
// Pinned layouts: the cost placer's output, byte for byte.  The
// determinism test above only proves the placer agrees with
// itself, and the coverage gate tolerates +/-5% cycles, so a
// change to how moves are scored could otherwise move a placement
// unnoticed.
// ------------------------------------------------------------------

/** 64-bit FNV-1a over the little-endian bytes of @p words. */
std::uint64_t
fnv1a(const std::vector<std::uint32_t> &words)
{
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (std::uint32_t w : words)
        for (int byte = 0; byte < 4; ++byte) {
            h ^= (w >> (8 * byte)) & 0xffu;
            h *= 0x100000001b3ull;
        }
    return h;
}

TEST(Placement, MatchesPinnedLayouts)
{
    // One cell per (kernel, variant): "default" is evalFabric()
    // with default options, "faults" adds a seeded plan of 3 dead
    // PEs and 1 dead link, "unroll1" turns replication off, "hop2"
    // doubles the mesh hop latency and "exec1" halves the execute
    // latency.  hop2 and exec1 cover SCD and ADPCM, whose moves
    // often lengthen every edge they touch; HT, LDPC and SCD,
    // whose scores fold in operand skew (rule 1 then skips only
    // moves that keep the skew witness); and CRC, whose two phases
    // make cross-phase swaps.
    struct Pinned
    {
        const char *kernel;
        const char *variant;
        std::uint64_t programFnv;
        const char *placeNote;
    };
    const Pinned pinned[] = {
        {"VI", "default", 0xee4b09a70f1ec057ull,
         "cost placer: 42/100 PEs (0 nonlinear), recurrence II 6 6 "
         "cycle(s), weighted wirelength 161, 117 improving move(s)\n"},
        {"NW", "default", 0x4048ebaed6a0ada6ull,
         "cost placer: 35/100 PEs (0 nonlinear), recurrence II 12 "
         "6 cycle(s), weighted wirelength 111, 49 improving "
         "move(s)\n"},
        {"HT", "default", 0x85ca9b95f53cd124ull,
         "cost placer: 20/100 PEs (0 nonlinear), recurrence II 3 "
         "cycle(s), weighted wirelength 44, 38 improving move(s)\n"},
        {"CRC", "default", 0xb68e5afe71bc7039ull,
         "cost placer: 15/100 PEs (0 nonlinear), recurrence II 1 12 "
         "cycle(s), weighted wirelength 83, 20 improving move(s)\n"},
        {"ADPCM", "default", 0x709a21904b682f03ull,
         "cost placer: 24/100 PEs (0 nonlinear), recurrence II 28 "
         "cycle(s), weighted wirelength 334, 95 improving move(s)\n"},
        {"SCD", "default", 0xfc69721eef5f3949ull,
         "fused 3 memory-ordering fence(s) into load ordering "
         "operands\n"
         "cost placer: 17/100 PEs (0 nonlinear), recurrence II 3 "
         "cycle(s), weighted wirelength 158, 87 improving move(s)\n"},
        {"LDPC", "default", 0xe668f49f85e3d246ull,
         "fused 4 memory-ordering fence(s) into load ordering "
         "operands\n"
         "cost placer: 64/100 PEs (0 nonlinear), recurrence II 12 "
         "cycle(s), weighted wirelength 1137, 698 improving "
         "move(s)\n"},
        {"GEMM", "default", 0x301a4595584cbcd8ull,
         "cost placer: 81/100 PEs (0 nonlinear), recurrence II 6 "
         "cycle(s), weighted wirelength 464, 819 improving move(s)\n"},
        {"CO", "default", 0x9354fba9d1af8ce0ull,
         "cost placer: 26/100 PEs (0 nonlinear), recurrence II 4 "
         "cycle(s), weighted wirelength 60, 63 improving move(s)\n"},
        {"SI", "default", 0x1cf67dfab310445dull,
         "cost placer: 4/100 PEs (1 nonlinear), recurrence II 1 "
         "cycle(s), weighted wirelength 4, 83 improving move(s)\n"},
        {"GP", "default", 0xa5f810564ef853eull,
         "cost placer: 12/100 PEs (0 nonlinear), recurrence II 2 "
         "cycle(s), weighted wirelength 18, 0 improving move(s)\n"},
        {"SI", "faults", 0x78fc2d4ceeae28d6ull,
         "cost placer: 4/100 PEs (1 nonlinear), recurrence II 1 "
         "cycle(s), weighted wirelength 4, 92 improving move(s)\n"},
        {"CRC", "faults", 0xb68e5afe71bc7039ull,
         "cost placer: 15/100 PEs (0 nonlinear), recurrence II 1 12 "
         "cycle(s), weighted wirelength 83, 23 improving move(s)\n"},
        {"SCD", "faults", 0xfc69721eef5f3949ull,
         "fused 3 memory-ordering fence(s) into load ordering "
         "operands\n"
         "cost placer: 17/100 PEs (0 nonlinear), recurrence II 3 "
         "cycle(s), weighted wirelength 158, 75 improving move(s)\n"},
        {"ADPCM", "faults", 0xb29725aae722271cull,
         "cost placer: 24/100 PEs (0 nonlinear), recurrence II 28 "
         "cycle(s), weighted wirelength 317, 110 improving move(s)\n"},
        {"NW", "faults", 0x5abe0d399455df80ull,
         "cost placer: 35/100 PEs (0 nonlinear), recurrence II 12 "
         "6 cycle(s), weighted wirelength 114, 43 improving "
         "move(s)\n"},
        {"SI", "unroll1", 0x1cf67dfab310445dull,
         "cost placer: 4/100 PEs (1 nonlinear), recurrence II 1 "
         "cycle(s), weighted wirelength 4, 83 improving move(s)\n"},
        {"CRC", "unroll1", 0xb68e5afe71bc7039ull,
         "cost placer: 15/100 PEs (0 nonlinear), recurrence II 1 12 "
         "cycle(s), weighted wirelength 83, 20 improving move(s)\n"},
        {"SCD", "unroll1", 0xfc69721eef5f3949ull,
         "fused 3 memory-ordering fence(s) into load ordering "
         "operands\n"
         "cost placer: 17/100 PEs (0 nonlinear), recurrence II 3 "
         "cycle(s), weighted wirelength 158, 87 improving move(s)\n"},
        {"ADPCM", "unroll1", 0x709a21904b682f03ull,
         "cost placer: 24/100 PEs (0 nonlinear), recurrence II 28 "
         "cycle(s), weighted wirelength 334, 95 improving move(s)\n"},
        {"NW", "unroll1", 0x4048ebaed6a0ada6ull,
         "cost placer: 35/100 PEs (0 nonlinear), recurrence II 12 "
         "6 cycle(s), weighted wirelength 111, 49 improving "
         "move(s)\n"},
        {"SCD", "hop2", 0xc9ee95c5e6cf1b6bull,
         "fused 3 memory-ordering fence(s) into load ordering "
         "operands\n"
         "cost placer: 17/100 PEs (0 nonlinear), recurrence II 4 "
         "cycle(s), weighted wirelength 304, 34 improving move(s)\n"},
        {"ADPCM", "hop2", 0xd5391176d113beadull,
         "cost placer: 24/100 PEs (0 nonlinear), recurrence II 38 "
         "cycle(s), weighted wirelength 648, 92 improving move(s)\n"},
        {"CRC", "hop2", 0xd0bf525d7cbb5ae9ull,
         "cost placer: 15/100 PEs (0 nonlinear), recurrence II 1 16 "
         "cycle(s), weighted wirelength 172, 24 improving move(s)\n"},
        {"HT", "hop2", 0x9966fd6b5c6bea5eull,
         "cost placer: 20/100 PEs (0 nonlinear), recurrence II 4 "
         "cycle(s), weighted wirelength 88, 60 improving move(s)\n"},
        {"LDPC", "hop2", 0xe9753bb305f032a6ull,
         "fused 4 memory-ordering fence(s) into load ordering "
         "operands\n"
         "cost placer: 64/100 PEs (0 nonlinear), recurrence II 16 "
         "cycle(s), weighted wirelength 2170, 793 improving move(s)\n"},
        {"SCD", "exec1", 0xfc69721eef5f3949ull,
         "fused 3 memory-ordering fence(s) into load ordering "
         "operands\n"
         "cost placer: 17/100 PEs (0 nonlinear), recurrence II 2 "
         "cycle(s), weighted wirelength 158, 43 improving move(s)\n"},
        {"ADPCM", "exec1", 0xd5391176d113beadull,
         "cost placer: 24/100 PEs (0 nonlinear), recurrence II 19 "
         "cycle(s), weighted wirelength 324, 93 improving move(s)\n"},
        {"CRC", "exec1", 0x5da0e81167306a21ull,
         "cost placer: 15/100 PEs (0 nonlinear), recurrence II 1 8 "
         "cycle(s), weighted wirelength 83, 20 improving move(s)\n"},
        {"HT", "exec1", 0x85ca9b95f53cd124ull,
         "cost placer: 20/100 PEs (0 nonlinear), recurrence II 2 "
         "cycle(s), weighted wirelength 44, 35 improving move(s)\n"},
        {"LDPC", "exec1", 0x961d0ab392c83dadull,
         "fused 4 memory-ordering fence(s) into load ordering "
         "operands\n"
         "cost placer: 64/100 PEs (0 nonlinear), recurrence II 8 "
         "cycle(s), weighted wirelength 1102, 706 improving move(s)\n"},
    };
    for (const Pinned &cell : pinned) {
        const std::string variant = cell.variant;
        MachineConfig config = evalFabric();
        CompilerOptions opts;
        if (variant == "faults")
            config.faults = FaultPlan::seeded(10, 10, 3, 1, 1);
        else if (variant == "unroll1")
            opts.unrollFactor = 1;
        else if (variant == "hop2")
            config.meshHopLatency = 2;
        else if (variant == "exec1")
            config.executeLatency = 1;
        CompileResult r =
            Compiler(config, opts).compile(cell.kernel);
        ASSERT_TRUE(r.ok()) << cell.kernel << " " << variant << "\n"
                            << r.report.toString();
        const std::uint64_t fnv =
            fnv1a(encodeProgram(r.kernel->program));
        const std::string note = placeNote(r.report);
        // On a mismatch, print the cell's row as it now reads.
        std::ostringstream row;
        row << "{\"" << cell.kernel << "\", \"" << variant
            << "\", 0x" << std::hex << fnv << "ull, \"";
        for (char ch : note)
            row << (ch == '\n' ? std::string("\\n")
                                : std::string(1, ch));
        row << "\"}";
        EXPECT_EQ(fnv, cell.programFnv) << row.str();
        EXPECT_EQ(note, cell.placeNote) << row.str();
    }
}

// ------------------------------------------------------------------
// Rewrites: the place pass fuses fences, the lower pass folds
// selects.
// ------------------------------------------------------------------

int
selectsIn(const Program &program)
{
    int n = 0;
    for (const PeProgram &pe : program.pes)
        for (const Instruction &in : pe.instrs)
            n += in.op == Opcode::Select ? 1 : 0;
    return n;
}

TEST(Placement, FencesFuseAndCrcKeepsOneSelect)
{
    // The place pass's fence fusion (LDPC) and the lower pass's
    // select folds (CRC's byte xor-in folds; its bit step's select
    // stays).
    MachineConfig config = evalFabric();
    CompileResult ldpc = Compiler(config).compile("LDPC");
    ASSERT_TRUE(ldpc.ok());
    EXPECT_NE(placeNote(ldpc.report).find("fused"), std::string::npos);
    CompileResult crc = Compiler(config).compile("CRC");
    ASSERT_TRUE(crc.ok());
    EXPECT_EQ(selectsIn(crc.kernel->program), 1);
}

TEST(Placement, FencesFuseBeforeTheCapacityCheck)
{
    // LDPC's netlist needs 69 PEs before its 4 fences fuse and 64
    // after.  With 32 dead PEs only 68 are alive, so the capacity
    // check must count the fused netlist.
    MachineConfig config = evalFabric();
    config.faults = FaultPlan::seeded(10, 10, 32, 0, 1);
    CompileResult ldpc = Compiler(config).compile("LDPC");
    ASSERT_TRUE(ldpc.ok()) << ldpc.report.toString();
    const std::string note = placeNote(ldpc.report);
    EXPECT_NE(note.find("fused 4 memory-ordering fence(s)"),
              std::string::npos)
        << note;
    EXPECT_NE(note.find("cost placer: 64/100 PEs"), std::string::npos)
        << note;
    for (bool event : {false, true}) {
        config.eventDrivenSim = event;
        MarionetteMachine machine(config);
        ldpc.kernel->prepare(machine);
        const RunResult run = machine.run(ldpc.kernel->cycleBudget);
        EXPECT_EQ(ldpc.kernel->validate(machine, run), "")
            << (event ? "event" : "reference");
        EXPECT_EQ(run.cycles, 215140u) << (event ? "event" : "reference");
    }
}

// ------------------------------------------------------------------
// Route plan: latencies and paths must match the machine's mesh.
// ------------------------------------------------------------------

TEST(RoutePlan, LatenciesMatchTheCycleAccurateMesh)
{
    for (Cycles hop : {Cycles{1}, Cycles{2}}) {
        MachineConfig config = evalFabric();
        config.meshHopLatency = hop;
        const Workload *w = findWorkload("NW");
        ASSERT_NE(w, nullptr);
        Compilation cc(*w, config, CompilerOptions{});
        CompiledKernel out;
        cc.out = &out;
        PassManager pm;
        pm.add(kPassAnalyze, passAnalyze)
            .add(kPassPredicate, passPredicate)
            .add(kPassStructure, passStructure)
            .add(kPassBind, passBind)
            .add(kPassLower, passLower)
            .add(kPassPlace, passPlace)
            .add(kPassRoute, passRoute);
        ASSERT_TRUE(pm.run(cc)) << cc.report.toString();

        DataMesh mesh(config.rows, config.cols,
                      config.meshHopLatency);
        int edges = 0;
        for (const PhaseRoute &route : cc.routes.phases) {
            for (const RoutedEdge &e : route.edges) {
                ++edges;
                EXPECT_EQ(e.hops, mesh.hops(e.srcPe, e.dstPe));
                EXPECT_EQ(e.latency,
                          mesh.latency(e.srcPe, e.dstPe));
                // The materialized path is a valid XY route:
                // right endpoints, unit steps, length = hops + 1.
                ASSERT_GE(e.path.size(), 1u);
                EXPECT_EQ(e.path.front(), e.srcPe);
                EXPECT_EQ(e.path.back(), e.dstPe);
                EXPECT_EQ(static_cast<int>(e.path.size()),
                          e.hops + 1);
                for (std::size_t i = 0; i + 1 < e.path.size();
                     ++i)
                    EXPECT_EQ(mesh.hops(e.path[i],
                                        e.path[i + 1]),
                              1);
            }
        }
        EXPECT_GT(edges, 0);
        // The derived timing feeds emit: every drain bound must be
        // present and sane (positive, no larger than the legacy
        // all-operators-serialize guess).
        ASSERT_EQ(cc.routes.drainCycles.size(),
                  cc.phases.size() - 1);
        for (std::size_t p = 0; p < cc.routes.drainCycles.size();
             ++p) {
            Cycles n = static_cast<Cycles>(
                cc.phases[p].liveNodes.size());
            EXPECT_GE(cc.routes.drainCycles[p], 128u);
            EXPECT_LE(cc.routes.drainCycles[p],
                      64 + 8 * n * (3 * (n + 2) + 16));
        }
    }
}

/** The per-phase IIs of the place note ("recurrence II 12 6
 *  cycle(s)") and of the route notes ("phase 0: ... recurrence II
 *  ~12 cycles"), in phase order. */
std::vector<Cycles>
notedIIs(const CompileReport &report, const std::string &pass)
{
    const std::string key =
        pass == "place" ? "recurrence II " : "recurrence II ~";
    std::vector<Cycles> iis;
    for (const CompilerPassNote &n : report.notes) {
        const std::size_t at = n.message.find(key);
        if (n.pass != pass || at == std::string::npos)
            continue;
        std::istringstream in(n.message.substr(at + key.size()));
        for (Cycles ii; in >> ii;)
            iis.push_back(ii);
    }
    return iis;
}

TEST(RoutePlan, PhaseTimingMatchesThePlacer)
{
    // Healthy fabrics only: under dead links the placer still
    // scores on healthy mesh latencies while the route pass charges
    // the detours, so the two differ there (ADPCM under
    // FaultPlan::seeded(10, 10, 8, 2, 1) places at II 32 and routes
    // at II 36).
    MachineConfig hop2 = evalFabric();
    hop2.meshHopLatency = 2;
    MachineConfig exec1 = evalFabric();
    exec1.executeLatency = 1;
    int compiled = 0;
    for (const MachineConfig &config : {evalFabric(), hop2, exec1}) {
        for (const Workload *w : allWorkloads()) {
            CompileResult r = Compiler(config).compile(*w);
            if (!r.ok())
                continue;
            ++compiled;
            const std::vector<Cycles> placed =
                notedIIs(r.report, "place");
            EXPECT_FALSE(placed.empty()) << w->name();
            EXPECT_EQ(notedIIs(r.report, "route"), placed)
                << w->name() << " (hop " << config.meshHopLatency
                << ", exec " << config.executeLatency << ")";
        }
    }
    EXPECT_EQ(compiled, 33); // 11 kernels x 3 fabrics.

    // HT, CO and GP carry no loop value: operand skew alone sets
    // their II.
    const std::pair<const char *, Cycles> skew_bound[] = {
        {"HT", 3}, {"CO", 4}, {"GP", 2}};
    for (const auto &[kernel, ii] : skew_bound) {
        CompileResult r = Compiler(evalFabric()).compile(kernel);
        ASSERT_TRUE(r.ok()) << kernel;
        EXPECT_EQ(notedIIs(r.report, "route"),
                  std::vector<Cycles>{ii})
            << kernel;
    }
}

TEST(RoutePlan, PredictsEveryLinkOnTheServeMix)
{
    // The route pass's per-link loads, the head start that closing
    // channels' boot words give their producers included, equal
    // the machine's on every link of the eval fabric for each
    // kernel of the serving mix (MulticastCharge checks only the
    // hottest link, on other kernels).
    const MachineConfig config = evalFabric();
    for (const char *kernel : {"SI", "CRC", "SCD", "ADPCM"}) {
        const Workload *w = findWorkload(kernel);
        ASSERT_NE(w, nullptr);
        Compilation cc(*w, config, CompilerOptions{});
        CompiledKernel out;
        cc.out = &out;
        PassManager pm;
        pm.add(kPassAnalyze, passAnalyze)
            .add(kPassPredicate, passPredicate)
            .add(kPassStructure, passStructure)
            .add(kPassUnroll, passUnroll)
            .add(kPassBind, passBind)
            .add(kPassLower, passLower)
            .add(kPassPlace, passPlace)
            .add(kPassRoute, passRoute)
            .add(kPassEmit, passEmit);
        ASSERT_TRUE(pm.run(cc)) << kernel << "\n"
                                << cc.report.toString();

        MarionetteMachine machine(config);
        out.prepare(machine);
        RunResult run = machine.run(out.cycleBudget);
        ASSERT_EQ(out.validate(machine, run), "") << kernel;
        const std::vector<std::uint64_t> &measured =
            machine.mesh().linkLoads();
        const std::vector<std::uint64_t> &predicted =
            cc.routes.predictedLinkLoads;
        ASSERT_EQ(predicted.size(), measured.size()) << kernel;
        for (std::size_t link = 0; link < measured.size(); ++link)
            EXPECT_EQ(predicted[link], measured[link])
                << kernel << " link " << link;
    }
}

TEST(MeshGeometry, XyPathsAndLinkIndices)
{
    MeshGeometry geom(4, 5, 2);
    EXPECT_EQ(geom.hops(0, 19), 7);
    EXPECT_EQ(geom.latency(0, 19), 14u);
    EXPECT_EQ(geom.latency(7, 7), 1u); // self-sends still cost 1.

    std::vector<PeId> path = geom.xyPath(0, 19);
    ASSERT_EQ(path.size(), 8u);
    EXPECT_EQ(path.front(), 0);
    EXPECT_EQ(path.back(), 19);
    for (std::size_t i = 0; i + 1 < path.size(); ++i)
        EXPECT_EQ(geom.hops(path[i], path[i + 1]), 1);

    // Every directed mesh link maps to a distinct dense index.
    std::set<int> seen;
    for (PeId a = 0; a < geom.numPes(); ++a)
        for (PeId b = 0; b < geom.numPes(); ++b) {
            if (geom.hops(a, b) != 1)
                continue;
            int idx = geom.linkIndex(a, b);
            EXPECT_GE(idx, 0);
            EXPECT_LT(idx, geom.numLinks());
            EXPECT_TRUE(seen.insert(idx).second)
                << a << "->" << b;
        }
    EXPECT_EQ(static_cast<int>(seen.size()), geom.numLinks());
}

// ------------------------------------------------------------------
// The quiescence bug the cost placer exposed: a packet on a mesh
// route longer than the idle grace window must not be stranded.
// ------------------------------------------------------------------

TEST(Machine, QuiescenceWaitsForWordsInFlight)
{
    MachineConfig config;
    config.rows = 10;
    config.cols = 10;
    config.meshHopLatency = 2; // corner-to-corner: 36 cycles,
                               // longer than the idle grace window.
    ProgramBuilder b("long_edge", config);
    b.setNumOutputs(1);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 7;
    gen.loopBound = 8;
    gen.loopStep = 1;
    gen.pipelineII = 1;
    gen.dests = {DestSel::toPe(99, 0)};
    b.setEntry(0, 0);
    Instruction &sink = b.place(99, 0);
    sink.mode = SenderMode::Dfg;
    sink.op = Opcode::Copy;
    sink.a = OperandSel::channel(0);
    sink.dests = {DestSel::toOutput(0)};
    b.setEntry(99, 0);

    MarionetteMachine machine(config);
    machine.load(b.finish());
    RunResult run = machine.run(10'000);
    ASSERT_TRUE(run.finished);
    std::vector<Word> want = {7};
    EXPECT_EQ(run.outputs[0], want)
        << "the corner-to-corner word was stranded in flight";
    EXPECT_EQ(machine.mesh().inFlight(), 0u);

    // The congestion counters saw the route: 18 hops, one packet.
    CongestionReport cg = machine.congestion();
    EXPECT_EQ(cg.packets, 1u);
    EXPECT_EQ(cg.hopTraversals, 18u);
    EXPECT_EQ(cg.maxLinkLoad, 1u);
}

} // namespace
} // namespace marionette

/**
 * @file
 * The SPMV imperfect nest on the *unified* pass pipeline: the same
 * kernel as examples/imperfect_loop.cpp, but expressed as a CDFG
 * with a data-dependent inner loop and compiled end to end by
 * Compiler (analyze/predicate/structure/unroll/bind/lower/place/
 * route/emit) — the closest analogue of the paper's
 * #pragma-annotated source flow (Fig. 9).
 *
 *     for (i = 0; i < rows; ++i)            // counted outer
 *         for (j = rD[i]; j < rD[i+1]; ++j) // while-form inner
 *             sum += val[j] * vec[cols[j]];
 *
 * The inner loop is *condition-driven* (a Loop operator consuming
 * j < bound): the structure pass builds a WhileLoop region and the
 * lowering runs it with a guarded exit predicate under a static
 * per-row cap from the machine data, masking the slots past the
 * dynamic exit.  Because each row's edges are contiguous, the
 * loop-carried j needs no per-row reseeding: the previous row's
 * exit value *is* the next row's start.
 */

#include <cstdio>
#include <vector>

#include "core/marionette.h"

using namespace marionette;

namespace
{

constexpr int kRows = 16;
constexpr int kMaxNnz = 7; // rng.nextBounded(7): 0..6 per row.
constexpr Word kBaseRd = 0, kBaseVal = 32, kBaseCols = 256,
               kBaseVec = 512;

struct SpmvData
{
    std::vector<Word> rd{0};
    std::vector<Word> val;
    std::vector<Word> cols;
    std::vector<Word> vec;
};

SpmvData
makeData()
{
    SpmvData d;
    Rng rng(17);
    for (int r = 0; r < kRows; ++r) {
        int nnz = static_cast<int>(rng.nextBounded(7));
        for (int k = 0; k < nnz; ++k) {
            d.val.push_back(
                static_cast<Word>(rng.nextRange(-9, 9)));
            d.cols.push_back(
                static_cast<Word>(rng.nextBounded(32)));
        }
        d.rd.push_back(static_cast<Word>(d.val.size()));
    }
    d.vec.resize(32);
    for (Word &v : d.vec)
        v = static_cast<Word>(rng.nextRange(-5, 5));
    return d;
}

class SpmvWorkload : public Workload
{
  public:
    std::string name() const override { return "SPMV"; }
    std::string fullName() const override { return "Auto SPMV"; }
    std::string sizeDesc() const override { return "16 rows"; }

    Cdfg
    buildCdfg() const override
    {
        CdfgBuilder b("auto_spmv");
        BlockId init = b.addBlock("init");
        BlockId outer = b.addLoopHeader("row_loop");
        BlockId bounds = b.addBlock("bounds");
        BlockId inner = b.addLoopHeader("edge_while");
        BlockId body = b.addBlock("edge_body");
        BlockId rlatch = b.addBlock("row_latch");
        BlockId done = b.addBlock("done");

        {
            Dfg &d = b.dfg(init);
            NodeId c = d.addNode(Opcode::Const, Operand::imm(0));
            d.addOutput("i", c);
        }
        {
            Dfg &d = b.dfg(outer);
            dfg_patterns::addCountedLoop(d, 0, 1, "rows");
        }
        {   // (start, bound) = (rD[i], rD[i+1]); start is implicit:
            // row edges are contiguous, so the carried j already
            // sits at rD[i] when row i begins.
            Dfg &d = b.dfg(bounds);
            int i = d.addInput("i");
            NodeId ip1 = d.addNode(Opcode::Add, Operand::input(i),
                                   Operand::imm(1));
            NodeId bound = d.addNode(Opcode::Load,
                                     Operand::node(ip1),
                                     Operand::none(),
                                     Operand::none(), "rd");
            d.addOutput("bound", bound);
        }
        {   // while (j < bound): condition-driven Loop operator.
            Dfg &d = b.dfg(inner);
            int j = d.addInput("j");
            int bound = d.addInput("bound");
            NodeId lt = d.addNode(Opcode::CmpLt, Operand::input(j),
                                  Operand::input(bound),
                                  Operand::none(), "j<bound");
            NodeId lp = d.addNode(Opcode::Loop, Operand::node(lt),
                                  Operand::imm(1));
            d.addOutput("continue", lp);
        }
        {   // sum += val[j] * vec[cols[j]]; ++j.
            Dfg &d = b.dfg(body);
            int j = d.addInput("j");
            int sum = d.addInput("sum");
            NodeId v = d.addNode(Opcode::Load, Operand::input(j),
                                 Operand::none(), Operand::none(),
                                 "val");
            NodeId c = d.addNode(Opcode::Load, Operand::input(j),
                                 Operand::none(), Operand::none(),
                                 "cols");
            NodeId x = d.addNode(Opcode::Load, Operand::node(c),
                                 Operand::none(), Operand::none(),
                                 "vec");
            NodeId prod = d.addNode(Opcode::Mul, Operand::node(v),
                                    Operand::node(x),
                                    Operand::none(), "partial");
            NodeId ns = d.addNode(Opcode::Add, Operand::input(sum),
                                  Operand::node(prod));
            NodeId nj = d.addNode(Opcode::Add, Operand::input(j),
                                  Operand::imm(1));
            d.addOutput("sum", ns);
            d.addOutput("j", nj);
        }
        for (BlockId lb : {rlatch, done}) {
            Dfg &d = b.dfg(lb);
            int x = d.addInput("x");
            NodeId c = d.addNode(Opcode::Copy, Operand::input(x));
            d.addOutput("x", c);
        }

        b.fall(init, outer);
        b.fall(outer, bounds);
        b.fall(bounds, inner);
        b.fall(inner, body);
        b.loopBack(body, inner);
        b.loopExit(inner, rlatch);
        b.loopBack(rlatch, outer);
        b.loopExit(outer, done);
        return b.finish();
    }

    WorkloadMachineSpec
    machineSpec() const override
    {
        SpmvData d = makeData();

        WorkloadMachineSpec spec;
        spec.available = true;
        spec.loopBounds["row_loop"] = {0, kRows, 1};
        spec.inductionPorts["row_loop"] = "i";
        spec.whileBounds["edge_while"] = kMaxNnz;
        spec.arrayBases["rd"] = kBaseRd;
        spec.arrayBases["val"] = kBaseVal;
        spec.arrayBases["cols"] = kBaseCols;
        spec.arrayBases["vec"] = kBaseVec;
        spec.scalars["j"] = 0;   // rD[0]
        spec.scalars["sum"] = 0;

        spec.memoryImage.assign(kBaseVec + 32, 0);
        auto put = [&](Word base, const std::vector<Word> &vs) {
            for (std::size_t k = 0; k < vs.size(); ++k)
                spec.memoryImage[static_cast<std::size_t>(base) +
                                 k] = vs[k];
        };
        put(kBaseRd, d.rd);
        put(kBaseVal, d.val);
        put(kBaseCols, d.cols);
        put(kBaseVec, d.vec);

        // Golden slot stream: one "sum" word per flattened slot
        // (kRows x kMaxNnz), frozen on masked slots.
        std::vector<Word> stream;
        Word sum = 0;
        Word j = 0;
        for (int r = 0; r < kRows; ++r) {
            Word bound = d.rd[static_cast<std::size_t>(r + 1)];
            for (int k = 0; k < kMaxNnz; ++k) {
                if (j < bound) {
                    sum += d.val[static_cast<std::size_t>(j)] *
                           d.vec[static_cast<std::size_t>(
                               d.cols[static_cast<std::size_t>(
                                   j)])];
                    ++j;
                }
                stream.push_back(sum);
            }
        }
        spec.observePorts = {"sum"};
        spec.expectedOutputs = {std::move(stream)};
        return spec;
    }

    std::uint64_t
    runGolden(KernelRecorder &rec) const override
    {
        SpmvData d = makeData();
        rec.block(0);
        rec.round(1);
        Word sum = 0;
        for (int r = 0; r < kRows; ++r) {
            rec.iteration(1);
            rec.block(2);
            rec.round(3);
            for (Word k = d.rd[static_cast<std::size_t>(r)];
                 k < d.rd[static_cast<std::size_t>(r + 1)]; ++k) {
                rec.iteration(3);
                rec.block(4);
                sum += d.val[static_cast<std::size_t>(k)] *
                       d.vec[static_cast<std::size_t>(
                           d.cols[static_cast<std::size_t>(k)])];
            }
            rec.block(5);
        }
        rec.block(6);
        return static_cast<std::uint64_t>(sum);
    }
};

} // namespace

int
main()
{
    // One row taller than the 4x4 prototype: the guarded-exit
    // lowering spends a few PEs on the while-loop's active chain
    // and the row-bound plumbing.
    MachineConfig config;
    config.rows = 5;
    config.instrMemBytes = 4 * 1024;
    SpmvWorkload spmv;
    CompileResult r = Compiler(config).compile(spmv);
    if (!r.ok()) {
        std::printf("compile failed:\n%s", r.report.toString().c_str());
        return 1;
    }
    std::printf("%s\n", r.kernel->program.disassemble().c_str());
    std::printf("compile report:\n%s\n",
                r.report.toString().c_str());

    MarionetteMachine machine(config);
    r.kernel->prepare(machine);
    RunResult run = machine.run(r.kernel->cycleBudget);
    std::string err = r.kernel->validate(machine, run);

    Word sum = run.outputs[0].empty() ? 0 : run.outputs[0].back();
    SpmvData d = makeData();
    Word golden = 0;
    for (std::size_t r2 = 0; r2 + 1 < d.rd.size(); ++r2)
        for (Word k = d.rd[r2]; k < d.rd[r2 + 1]; ++k)
            golden += d.val[static_cast<std::size_t>(k)] *
                      d.vec[static_cast<std::size_t>(
                          d.cols[static_cast<std::size_t>(k)])];

    std::printf("auto-compiled SPMV (while-form inner loop): "
                "%llu cycles\n",
                static_cast<unsigned long long>(run.cycles));
    std::printf("dot product: machine=%d golden=%d, stream %s -> "
                "%s\n",
                sum, golden,
                err.empty() ? "bit-exact" : err.c_str(),
                (sum == golden && err.empty()) ? "PASS" : "FAIL");
    return (sum == golden && err.empty()) ? 0 : 1;
}

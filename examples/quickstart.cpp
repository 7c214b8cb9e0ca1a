/**
 * @file
 * Quickstart: the paper's Fig. 1 flow in under a hundred lines.
 *
 * Describes a kernel (out[i] = 3 * a[i] + b[i]) as a one-loop CDFG,
 * compiles it through the unified pass pipeline (analyze /
 * predicate / structure / unroll / bind / lower / place / route /
 * emit), round-trips the binary configuration stream, runs it on
 * the cycle-accurate Marionette machine, and cross-validates
 * bit-exactly against the golden data the workload spec carries.
 *
 * Build & run:
 *   cmake -B build -G Ninja && cmake --build build
 *   ./build/quickstart
 */

#include <cstdio>
#include <vector>

#include "core/marionette.h"

using namespace marionette;

namespace
{

constexpr int kN = 256;
constexpr Word kBaseA = 0, kBaseB = 512, kBaseOut = 1024;

std::vector<Word>
inputs(Word seed_mix)
{
    Rng rng(42 + seed_mix);
    std::vector<Word> v(kN);
    for (Word &x : v)
        x = static_cast<Word>(rng.nextRange(-100, 100));
    return v;
}

class QuickstartWorkload : public Workload
{
  public:
    std::string name() const override { return "QS"; }
    std::string fullName() const override { return "Quickstart"; }
    std::string sizeDesc() const override { return "256"; }

    Cdfg
    buildCdfg() const override
    {
        CdfgBuilder b("quickstart");
        BlockId loop = b.addLoopHeader("i_loop");
        BlockId body = b.addBlock("body");
        BlockId done = b.addBlock("done");
        {
            Dfg &d = b.dfg(loop);
            dfg_patterns::addCountedLoop(d, 0, 1, "n");
        }
        {
            Dfg &d = b.dfg(body);
            int iv = d.addInput("i");
            NodeId a = d.addNode(Opcode::Load, Operand::input(iv),
                                 Operand::none(), Operand::none(),
                                 "a");
            NodeId bb = d.addNode(Opcode::Load, Operand::input(iv),
                                  Operand::none(), Operand::none(),
                                  "b");
            NodeId scaled = d.addNode(Opcode::Mul, Operand::node(a),
                                      Operand::imm(3));
            NodeId sum = d.addNode(Opcode::Add,
                                   Operand::node(scaled),
                                   Operand::node(bb));
            d.addNode(Opcode::Store, Operand::input(iv),
                      Operand::node(sum), Operand::none(), "out");
            d.addOutput("out", sum);
        }
        {
            Dfg &d = b.dfg(done);
            int x = d.addInput("out");
            NodeId c = d.addNode(Opcode::Copy, Operand::input(x));
            d.addOutput("x", c);
        }
        b.fall(loop, body);
        b.loopBack(body, loop);
        b.loopExit(loop, done);
        return b.finish();
    }

    WorkloadMachineSpec
    machineSpec() const override
    {
        WorkloadMachineSpec spec;
        spec.available = true;
        spec.loopBounds["i_loop"] = {0, kN, 1};
        spec.inductionPorts["i_loop"] = "i";
        spec.arrayBases["a"] = kBaseA;
        spec.arrayBases["b"] = kBaseB;
        spec.arrayBases["out"] = kBaseOut;

        std::vector<Word> va = inputs(0), vb = inputs(1);
        spec.memoryImage.assign(kBaseB + kN, 0);
        for (int i = 0; i < kN; ++i) {
            spec.memoryImage[static_cast<std::size_t>(i)] =
                va[static_cast<std::size_t>(i)];
            spec.memoryImage[static_cast<std::size_t>(kBaseB +
                                                      i)] =
                vb[static_cast<std::size_t>(i)];
        }
        std::vector<Word> out(kN);
        for (int i = 0; i < kN; ++i)
            out[static_cast<std::size_t>(i)] =
                3 * va[static_cast<std::size_t>(i)] +
                vb[static_cast<std::size_t>(i)];
        spec.observePorts = {"out"};
        spec.expectedOutputs = {out};
        spec.expectedMemory = {{"out", kBaseOut, out}};
        return spec;
    }

    std::uint64_t
    runGolden(KernelRecorder &rec) const override
    {
        std::vector<Word> va = inputs(0), vb = inputs(1);
        std::uint64_t sum = 0;
        rec.round(0);
        for (int i = 0; i < kN; ++i) {
            rec.iteration(0);
            rec.block(1);
            sum += static_cast<std::uint64_t>(static_cast<UWord>(
                3 * va[static_cast<std::size_t>(i)] +
                vb[static_cast<std::size_t>(i)]));
        }
        rec.block(2);
        return sum;
    }
};

} // namespace

int
main()
{
    // ---- 1. Compile through the unified pass pipeline. ----
    MachineConfig config; // 4x4 array, paper defaults.
    QuickstartWorkload kernel;
    CompileResult r = Compiler(config).compile(kernel);
    if (!r.ok()) {
        std::printf("compile failed:\n%s",
                    r.report.toString().c_str());
        return 1;
    }
    std::printf("%s\n", r.kernel->program.disassemble().c_str());
    std::printf("compile report:\n%s\n",
                r.report.toString().c_str());

    // The binary configuration stream round-trips (Sec. 4.4).
    auto words = encodeProgram(r.kernel->program);
    std::printf("binary configuration: %zu words\n\n",
                words.size());

    // ---- 2. Load, run, cross-validate. ----
    MarionetteMachine machine(config);
    machine.load(decodeProgram(words));
    machine.scratchpad().load(0, r.kernel->memoryImage);
    for (const BootInjection &bi : r.kernel->boots)
        machine.injectData(bi.pe, bi.channel, bi.value);

    RunResult result = machine.run(r.kernel->cycleBudget);
    std::printf("ran %llu cycles (%s), %llu FU fires, "
                "%.1f%% PE utilization\n",
                static_cast<unsigned long long>(result.cycles),
                result.finished ? "quiesced" : "cycle limit",
                static_cast<unsigned long long>(result.totalFires),
                100.0 * result.peUtilization);

    std::string err = r.kernel->validate(machine, result);
    std::printf("%s%s\n", err.empty() ? "PASS: bit-exact output "
                                        "stream and memory"
                                      : "FAIL: ",
                err.c_str());
    return err.empty() ? 0 : 1;
}

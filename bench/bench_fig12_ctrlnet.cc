/**
 * @file
 * Fig. 12: speedup contributed by the dedicated peer-to-peer
 * control network (control words at 1 cycle instead of riding the
 * 6-cycle data mesh).  Also demonstrates the effect on the
 * functional machine via the feature toggle.
 */

#include "bench_common.h"

namespace marionette
{
namespace
{

/** Functional-machine ablation: same kernel, network on/off. */
void
BM_MachineWithControlNetwork(benchmark::State &state)
{
    MachineConfig config;
    config.features.controlNetwork = state.range(0) != 0;
    ProgramBuilder b("abl", config);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = 128;
    gen.dests = {DestSel::toPe(5, 0), DestSel::toPe(15, 0)};
    b.setEntry(0, 0);
    Instruction &br = b.place(5, 0);
    br.mode = SenderMode::BranchOp;
    br.op = Opcode::And;
    br.a = OperandSel::channel(0);
    br.b = OperandSel::immediate(1);
    br.takenAddr = 1;
    br.notTakenAddr = 2;
    br.ctrlDests = {15};
    b.setEntry(5, 0);
    for (InstrAddr addr : {1, 2}) {
        Instruction &lane = b.place(15, addr);
        lane.mode = SenderMode::Dfg;
        lane.op = Opcode::Add;
        lane.a = OperandSel::channel(0);
        lane.b = OperandSel::immediate(addr);
        lane.ctrlGated = true;
        lane.dests = {DestSel::toOutput(0)};
    }
    Program prog = b.finish();

    Cycle cycles = 0;
    for (auto _ : state) {
        MarionetteMachine m(config);
        m.load(prog);
        RunResult r = m.run();
        cycles = r.cycles;
        benchmark::DoNotOptimize(r.outputs[0].size());
    }
    state.counters["kernel_cycles"] =
        static_cast<double>(cycles);
    state.SetLabel(state.range(0) ? "with_ctrlnet"
                                  : "ctrl_over_mesh");
}
BENCHMARK(BM_MachineWithControlNetwork)->Arg(1)->Arg(0);

void
BM_BenesRoute64(benchmark::State &state)
{
    BenesNetwork net(64);
    Rng rng(1);
    std::vector<int> perm(64);
    for (int i = 0; i < 64; ++i)
        perm[static_cast<std::size_t>(i)] = i;
    for (int i = 63; i > 0; --i) {
        int j = static_cast<int>(
            rng.nextBounded(static_cast<std::uint64_t>(i + 1)));
        std::swap(perm[static_cast<std::size_t>(i)],
                  perm[static_cast<std::size_t>(j)]);
    }
    for (auto _ : state) {
        BenesRouting r = net.route(perm);
        benchmark::DoNotOptimize(r.settings.size());
    }
}
BENCHMARK(BM_BenesRoute64);

} // namespace
} // namespace marionette

MARIONETTE_ARTIFACT_BENCH_MAIN(
    marionette::renderFig12(marionette::allProfiles()))

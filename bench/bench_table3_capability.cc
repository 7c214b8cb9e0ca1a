/**
 * @file
 * Table 3: control-flow capability comparison.  Prints the matrix
 * and backs the Marionette row with measurements: autonomy and
 * peer-to-peer transfer demonstrated on the functional machine.
 */

#include "bench_common.h"

namespace marionette
{
namespace
{

/** A branch PE autonomously reconfiguring a peer, end to end. */
Program
steeringKernel(const MachineConfig &config, int n)
{
    ProgramBuilder b("steer", config);
    Instruction &gen = b.place(0, 0);
    gen.mode = SenderMode::LoopOp;
    gen.op = Opcode::Loop;
    gen.loopStart = 0;
    gen.loopBound = n;
    gen.dests = {DestSel::toPe(1, 0), DestSel::toPe(2, 0)};
    b.setEntry(0, 0);
    Instruction &br = b.place(1, 0);
    br.mode = SenderMode::BranchOp;
    br.op = Opcode::And;
    br.a = OperandSel::channel(0);
    br.b = OperandSel::immediate(1);
    br.takenAddr = 1;
    br.notTakenAddr = 2;
    br.ctrlDests = {2};
    b.setEntry(1, 0);
    for (InstrAddr addr : {1, 2}) {
        Instruction &lane = b.place(2, addr);
        lane.mode = SenderMode::Dfg;
        lane.op = Opcode::Add;
        lane.a = OperandSel::channel(0);
        lane.b = OperandSel::immediate(addr);
        lane.ctrlGated = true;
        lane.dests = {DestSel::toOutput(0)};
    }
    return b.finish();
}

void
BM_AutonomousSteering(benchmark::State &state)
{
    MachineConfig config;
    Program prog =
        steeringKernel(config, static_cast<int>(state.range(0)));
    for (auto _ : state) {
        MarionetteMachine m(config);
        m.load(prog);
        RunResult r = m.run();
        benchmark::DoNotOptimize(r.cycles);
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_AutonomousSteering)->Arg(64)->Arg(256);

void
BM_ControlNetworkTransfer(benchmark::State &state)
{
    ControlNetwork net(16, 4);
    net.configure({ControlRoute{0, {3, 4, 5, 6}}});
    Word word = 0;
    for (auto _ : state) {
        auto deliveries = net.transfer({{0, word++}});
        benchmark::DoNotOptimize(deliveries.size());
    }
    state.SetItemsProcessed(state.iterations());
}
BENCHMARK(BM_ControlNetworkTransfer);

} // namespace
} // namespace marionette

MARIONETTE_ARTIFACT_BENCH_MAIN(marionette::renderTable3())

/**
 * @file
 * The compiler driver: report plumbing, the compiled-kernel
 * runtime helpers, and the PassManager wiring.  The passes
 * themselves live in structure.cc / bind.cc / lower.cc / emit.cc
 * and communicate through compiler/pipeline.h.
 */

#include "compiler/compiler.h"

#include <algorithm>
#include <sstream>

#include "arch/machine.h"
#include "compiler/pass_manager.h"
#include "compiler/pipeline.h"
#include "model/schedule_model.h"

namespace marionette
{

// ------------------------------------------------------------------
// CompileReport
// ------------------------------------------------------------------

void
CompileReport::note(const std::string &pass,
                    const std::string &message)
{
    notes.push_back({pass, message});
}

void
CompileReport::fail(const std::string &pass,
                    const std::string &why)
{
    if (!failedPass.empty()) {
        // The first failure latches; later ones are still recorded
        // so a kernel with several problems reports all of them.
        note(pass, "also rejected: " + why);
        return;
    }
    failedPass = pass;
    reason = why;
}

std::string
CompileReport::toString() const
{
    std::ostringstream out;
    for (const CompilerPassNote &n : notes)
        out << "  [" << n.pass << "] " << n.message << "\n";
    if (!ok())
        out << "  REJECTED by pass '" << failedPass
            << "': " << reason << "\n";
    else if (scheduledCycleEstimate > 0)
        out << "  [model] scheduled estimate: "
            << static_cast<std::uint64_t>(scheduledCycleEstimate)
            << " cycles\n";
    return out.str();
}

// ------------------------------------------------------------------
// CompiledKernel
// ------------------------------------------------------------------

std::pair<Word, Word>
CompiledKernel::memoryFootprint() const
{
    Word top = memoryImageBase + static_cast<Word>(memoryImage.size());
    for (const MemoryRegionCheck &check : memoryChecks)
        top = std::max<Word>(
            top, check.base + static_cast<Word>(check.expect.size()));
    return {memoryImageBase, top};
}

void
CompiledKernel::loadMemory(Scratchpad &scratchpad) const
{
    // A reused machine still holds the previous kernel's data, and
    // a kernel may read words its image does not set (HT's vote
    // accumulator starts from zero).
    const auto [base, top] = memoryFootprint();
    scratchpad.fill(base, top - base, 0);
    scratchpad.load(memoryImageBase, memoryImage);
}

void
CompiledKernel::prepare(MarionetteMachine &machine) const
{
    machine.load(program);
    loadMemory(machine.scratchpad());
    for (const BootInjection &b : boots)
        machine.injectData(b.pe, b.channel, b.value);
}

std::string
CompiledKernel::validate(const MarionetteMachine &machine,
                         const RunResult &run) const
{
    std::ostringstream out;
    if (!run.finished) {
        out << workload << ": machine did not quiesce within "
            << cycleBudget << " cycles";
        return out.str();
    }
    for (std::size_t k = 0; k < expectedOutputs.size(); ++k) {
        if (k >= run.outputs.size()) {
            out << workload << ": output FIFO " << k << " missing";
            return out.str();
        }
        const auto &got = run.outputs[k];
        const auto &want = expectedOutputs[k];
        if (got.size() != want.size()) {
            out << workload << ": output FIFO " << k << " has "
                << got.size() << " words, golden has "
                << want.size();
            return out.str();
        }
        for (std::size_t i = 0; i < want.size(); ++i) {
            if (got[i] != want[i]) {
                out << workload << ": output FIFO " << k
                    << " word " << i << " = " << got[i]
                    << ", golden " << want[i];
                return out.str();
            }
        }
    }
    for (const MemoryRegionCheck &c : memoryChecks) {
        std::vector<Word> got = machine.scratchpad().dump(
            c.base, static_cast<int>(c.expect.size()));
        for (std::size_t i = 0; i < c.expect.size(); ++i) {
            if (got[i] != c.expect[i]) {
                out << workload << ": memory region '" << c.label
                    << "' word " << i << " = " << got[i]
                    << ", golden " << c.expect[i];
                return out.str();
            }
        }
    }
    return {};
}

// ------------------------------------------------------------------
// Driver
// ------------------------------------------------------------------

Compiler::Compiler(const MachineConfig &config)
    : Compiler(config, CompilerOptions{})
{
}

Compiler::Compiler(const MachineConfig &config,
                   const CompilerOptions &options)
    : config_(config), options_(options)
{
    config_.validate();
}

CompileResult
Compiler::compile(const Workload &workload) const
{
    Compilation cc(workload, config_, options_);
    auto kernel = std::make_shared<CompiledKernel>();
    cc.out = kernel.get();

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
    bool ok = pm.run(cc);

    CompileResult result;
    if (ok) {
        // Scheduled-cycle estimate: the route pass's derived
        // timing (the placer's IIs and fill latencies on routed
        // latencies, drain bounds, multicast link traffic) folded
        // into the cycle count the placed pipeline should sustain.
        ScheduleModelInput sched;
        for (std::size_t p = 0; p < cc.phases.size(); ++p) {
            ScheduledPhase sp;
            sp.trips =
                static_cast<std::uint64_t>(cc.phases[p].trips);
            sp.initiationInterval =
                cc.routes.phases[p].recurrenceII;
            sp.fillLatency =
                cc.routes.phases[p].criticalPathLatency;
            sched.phases.push_back(sp);
        }
        sched.drainCycles = cc.routes.drainCycles;
        sched.maxLinkLoad = cc.routes.predictedMaxLinkLoad;
        sched.configCycles = 64;
        cc.report.scheduledCycleEstimate =
            scheduledCycleEstimate(sched);

        kernel->report = cc.report;
        result.kernel = std::move(kernel);
    }
    result.report = std::move(cc.report);
    return result;
}

CompileResult
Compiler::compile(const std::string &workload_name) const
{
    const Workload *w = findWorkload(workload_name);
    if (w == nullptr) {
        CompileResult result;
        result.report.fail("driver", "unknown workload '" +
                                         workload_name + "'");
        return result;
    }
    return compile(*w);
}

std::vector<std::string>
supportedWorkloads(const MachineConfig &config)
{
    Compiler compiler(config);
    std::vector<std::string> names;
    for (const Workload *w : allWorkloads())
        if (compiler.compile(*w).ok())
            names.push_back(w->name());
    return names;
}

} // namespace marionette

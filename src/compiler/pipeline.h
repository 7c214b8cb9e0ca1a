/**
 * @file
 * Shared state of the CDFG->Program pipeline (internal header).
 *
 * The Compilation object threads through every pass; each pass
 * produces the inputs of the next:
 *
 *   analyze    CDFG + machine data            (structure.cc)
 *   predicate  branch diamonds -> selects     (structure.cc)
 *   structure  CDFG -> RegionTree             (structure.cc)
 *   unroll     stripe-safe replication plan   (unroll.cc)
 *   bind       trips, spans, seeds resolved   (bind.cc)
 *   lower      RegionTree -> FlatPhases       (lower.cc)
 *   place      FlatPhases -> Mapping          (backend/placement.cc)
 *   route      Mapping -> RoutePlan           (backend/route.cc)
 *   emit       binary construction            (backend/emit.cc)
 *
 * Only the driver (compiler.cc), the pass translation units and
 * backend-focused tests include this header.
 */

#ifndef MARIONETTE_COMPILER_PIPELINE_H
#define MARIONETTE_COMPILER_PIPELINE_H

#include <algorithm>
#include <cstdint>
#include <limits>
#include <map>
#include <set>
#include <string>
#include <utility>
#include <vector>

#include "compiler/backend/mapping.h"
#include "compiler/compiler.h"
#include "compiler/region.h"
#include "ir/dfg.h"
#include "ir/loop_info.h"
#include "pe/channel.h"
#include "sim/config.h"
#include "workloads/workload.h"

namespace marionette
{

/** A loop-carried value of one flattened phase. */
struct CarriedValue
{
    std::string name;
    int inputIdx = -1;     ///< flat-body input port.
    Operand finalVal;      ///< end-of-slot value.
    Word seed = 0;
    bool live = false;
    /** Pipeline slack of the recurrence: how many slots the
     *  carried channel is seeded ahead.  1 (the default) is the
     *  classic single-token recurrence; an ordering token runs
     *  with the largest slack (at most channel depth - 1) under
     *  which the lower pass proves every same-word memory pair of
     *  its phase stays ordered, letting its consumers run that
     *  many slots ahead of the producer.  Slack applies to the
     *  *non-self* closing edges only — the final value's own
     *  pass-through chain keeps slack 1. */
    Cycles slack = 1;
};

/** One flattened phase ready for emission. */
struct FlatPhase
{
    Dfg body;                          ///< input 0 = flat index t.
    Word trips = 0;
    std::vector<CarriedValue> carried;
    std::map<NodeId, Word> memBase;    ///< per memory node.
    std::map<std::string, Operand> finalEnv;
    std::set<NodeId> liveNodes;
    /** Spatial unroll factor this phase was lowered at (1 = no
     *  replication).  At factor F the body holds F replicas of
     *  the striped loop's work sharing one generator stream;
     *  replica r covers source iterations r, r+F, r+2F, ... */
    int unrollFactor = 1;
    /** Per-replica final environments (size == unrollFactor when
     *  unrolled, else empty; finalEnv aliases replica 0).  The
     *  observation-splitting logic resolves each observed port in
     *  every replica to reassemble the golden stream order. */
    std::vector<std::map<std::string, Operand>> replicaEnvs;
    /** Body span (slots per iteration) of the striped loop, used
     *  to interleave per-replica observation streams back into
     *  source order. */
    Word stripeSpan = 0;
    /** What the lower pass's peephole rewrote here: sign selects
     *  absorbed into a Sub/Add pair, clamp selects folded into their
     *  Min/Max, loads merged into an identical load of their replica,
     *  and x-op-x operators folded (a lower note each). */
    int signSelectsAbsorbed = 0;
    int clampSelectsFolded = 0;
    int loadsMerged = 0;
    int selfOpsFolded = 0;
};

/** (fifo, phase, producing node) of one observed port. */
struct Observation
{
    int fifo = 0;
    int phase = 0;
    NodeId node = invalidNode;
};

/** The compilation state threading every pass. */
struct Compilation
{
    const Workload &workload;
    const MachineConfig &config;
    CompilerOptions options;
    CompileReport report;

    Cdfg cdfg{"empty"};
    LoopInfo loops;
    WorkloadMachineSpec spec;
    RegionTree top;
    std::map<std::string, Word> initEnv;
    /** Filled by unroll: one candidate replication factor per
     *  top-level phase region (1 when not replicated); the lower
     *  pass refines it downward, by divisors of the trip count,
     *  to fit the PE budget. */
    std::vector<int> unroll;
    std::vector<FlatPhase> phases;
    std::vector<Observation> observations;
    /** Golden output streams the emit pass hands the kernel —
     *  spec.expectedOutputs reordered for replica-split
     *  observations (identical to the spec streams at factor 1). */
    std::vector<std::vector<Word>> goldenOutputs;
    /** Filled by place. */
    Mapping mapping;
    /** Filled by route. */
    RoutePlan routes;
    /** Filled by emit. */
    CompiledKernel *out = nullptr;

    Compilation(const Workload &w, const MachineConfig &c,
                const CompilerOptions &o = {})
        : workload(w), config(c), options(o)
    {}

    bool
    fail(const char *pass, const std::string &why)
    {
        report.fail(pass, why);
        return false;
    }
};

// Pass names (stable: they appear in golden diagnostics).
inline constexpr const char *kPassAnalyze = "analyze";
inline constexpr const char *kPassPredicate = "predicate";
inline constexpr const char *kPassStructure = "structure";
inline constexpr const char *kPassUnroll = "unroll";
inline constexpr const char *kPassBind = "bind";
inline constexpr const char *kPassLower = "lower";
inline constexpr const char *kPassPlace = "place";
inline constexpr const char *kPassRoute = "route";
inline constexpr const char *kPassEmit = "emit";

/** PEs a kernel's phases occupy, against those its fabric has
 *  alive.  A phase takes one PE per generator and live node, each
 *  boundary between serial phases one more for its drain generator;
 *  the nonlinear counts are the live nodes that need a nonlinear-
 *  capable PE and the alive capable PEs.  The fault plan's dead PEs
 *  (and PEs isolated by dead links) are not alive. */
struct PeBudget
{
    int needed = 0;
    int nonlinearNeeded = 0;
    int alive = 0;
    int aliveNonlinear = 0;

    bool
    fits() const
    {
        return needed <= alive && nonlinearNeeded <= aliveNonlinear;
    }
};

/** @p cc's PE budget over its current phases: the lower pass
 *  refines unroll factors until it fits, the place pass checks it
 *  and records what the placed phases use. */
inline PeBudget
peBudget(const Compilation &cc)
{
    const MachineConfig &config = cc.config;
    PeBudget budget;
    budget.needed =
        std::max<int>(0, static_cast<int>(cc.phases.size()) - 1);
    for (const FlatPhase &phase : cc.phases) {
        budget.needed += 1 + static_cast<int>(phase.liveNodes.size());
        for (NodeId id : phase.liveNodes)
            if (isNonlinearOp(phase.body.node(id).op))
                ++budget.nonlinearNeeded;
    }
    budget.alive = config.numPes();
    budget.aliveNonlinear = config.nonlinearPes;
    for (PeId p : config.faults.effectiveDeadPes(config.rows, config.cols)) {
        --budget.alive;
        if (p >= config.numPes() - config.nonlinearPes)
            --budget.aliveNonlinear;
    }
    return budget;
}

/** The x of And(x, #0) either way round, a node whose word is 0
 *  whatever x holds (the b side when both are #0); nullptr for any
 *  other node.  The lower pass's ordering-token proof and the place
 *  pass's fence fusion both match it. */
inline const Operand *
zeroAnd(const DfgNode &n)
{
    auto zero = [](const Operand &o) {
        return o.kind == OperandKind::Immediate && o.ref == 0;
    };
    if (n.op != Opcode::And)
        return nullptr;
    if (zero(n.a))
        return &n.b;
    return zero(n.b) ? &n.a : nullptr;
}

/**
 * The timing of one phase's netlist: the one model the place pass
 * scores moves with (on mesh latencies) and the route pass reports
 * (on routed latencies).  Built once per phase.  Entity 0 is the
 * generator, then come the live nodes by ascending id: node ids
 * ascend along dependences, so this order is topological for the
 * template (the netlist minus its closing edges, the ones with boot
 * words; asserted) and each query is one sweep in index order.  A
 * query takes the pair latency lat(a, b) over entity numbers (by
 * value, so a small closure stays in registers through the sweeps)
 * and charges @p exec per stage.  Queries reuse the object's
 * scratch, so one object serves one thread.  The constructor is in
 * backend/placement.cc.
 */
class PhaseTiming
{
  public:
    PhaseTiming(const FlatPhase &phase,
                const std::vector<DataEdge> &netlist);

    /** Worst carried-cycle II: per closing edge, the round trip
     *  (longest template path consumer -> final value, plus the
     *  closing transit) over its boot words, rounded up — a
     *  channel seeded S words deep lets the consumer run S slots
     *  ahead.  0 without carried cycles.  Adds each II squared to
     *  @p sq. */
    template <class Lat>
    Cycles
    carriedII(Lat lat, Cycles exec,
              std::uint64_t *sq = nullptr) const
    {
        sweepFinals(lat, exec);
        Cycles worst = 0;
        for (const Closing &c : closing_) {
            const std::int64_t body = row(c.row)[c.consumer];
            if (body < 0)
                continue;
            const Cycles ii = (static_cast<Cycles>(body) +
                               lat(c.fin, c.consumer) + c.slack - 1) /
                              c.slack;
            worst = std::max(worst, ii);
            if (sq != nullptr)
                *sq += ii * ii;
        }
        return worst;
    }

    /** Operand skew over the kDataChannelDepth-deep consumer
     *  channels, rounded up: a word landing S cycles before its
     *  consumer's last operand (longest path from the generator)
     *  waits in the channel, so a skew of S backpressures the
     *  producers into an II of about S / depth — what binds
     *  recurrence-free kernels such as HT. */
    template <class Lat>
    Cycles
    skewII(Lat lat, Cycles exec) const
    {
        const std::int64_t skew = sweepSkew<false>(lat, exec, nullptr);
        return (static_cast<Cycles>(skew) + kDataChannelDepth - 1) /
               kDataChannelDepth;
    }

    /** A consumer whose own operand skew sets skewII, and the
     *  producer of its earliest operand (entity numbers, -1 when
     *  no consumer is skewed). */
    struct SkewWitness
    {
        int consumer = -1;
        int earliest = -1;
    };

    /** skewII's first most skewed consumer (a separate sweep, so
     *  skewII itself tracks nothing per edge). */
    template <class Lat>
    SkewWitness
    skewWitness(Lat lat, Cycles exec) const
    {
        SkewWitness witness;
        sweepSkew<true>(lat, exec, &witness);
        return witness;
    }

    /** Whether entity @p a is entity @p e or a template ancestor of
     *  it: e's firing time in skewII's sweep depends on the
     *  positions of exactly these entities. */
    bool
    feeds(int a, int e) const
    {
        const std::uint64_t word =
            ancestors_[static_cast<std::size_t>(e) * ancestorWords_ +
                       static_cast<std::size_t>(a) / 64];
        return ((word >> (static_cast<unsigned>(a) % 64)) & 1) != 0;
    }

    /** Latency and stages of a longest template path. */
    struct Fill
    {
        Cycles latency = 0;
        int depth = 0;
    };

    /** Pipeline fill: the longest generator-fed path (its depth is
     *  every live node when the generator feeds none).  Ties keep
     *  the first successor in netlist order. */
    template <class Lat>
    Fill
    fill(Lat lat, Cycles exec) const
    {
        std::vector<Fill> from(out_.size());
        for (int at = size() - 1; at >= 0; --at) {
            const int stages = at == 0 ? 0 : 1; // generator: none.
            Fill &best = from[static_cast<std::size_t>(at)];
            best = {stages * exec, stages};
            for (int next : succ(at)) {
                const Fill &tail = from[static_cast<std::size_t>(next)];
                const Cycles via =
                    stages * exec + lat(at, next) + tail.latency;
                if (via > best.latency)
                    best = {via, tail.depth + stages};
            }
        }
        if (from[0].depth == 0)
            from[0].depth = size() - 1;
        return from[0];
    }

    /** The entities of the worst carried cycle, consumer .. final
     *  value; empty without one.  Ties go to the first closing edge
     *  in netlist order and the first longest successor. */
    template <class Lat>
    std::vector<int>
    worstCycle(Lat lat, Cycles exec) const
    {
        sweepFinals(lat, exec);
        const Closing *worst = nullptr;
        std::int64_t worst_total = -1;
        for (const Closing &c : closing_) {
            const std::int64_t body = row(c.row)[c.consumer];
            if (body < 0)
                continue;
            const std::int64_t total =
                body +
                static_cast<std::int64_t>(lat(c.fin, c.consumer));
            if (total > worst_total) {
                worst_total = total;
                worst = &c;
            }
        }
        std::vector<int> chain;
        if (worst == nullptr)
            return chain;
        const std::int64_t *to = row(worst->row);
        // Each entity on the walk reaches the final and indices
        // ascend, so the walk ends there.
        for (int at = worst->consumer;;) {
            chain.push_back(at);
            if (at == worst->fin)
                break;
            int best_next = -1;
            std::int64_t best = -1;
            for (int next : succ(at)) {
                if (to[next] < 0)
                    continue;
                const std::int64_t via =
                    static_cast<std::int64_t>(exec + lat(at, next)) +
                    to[next];
                if (via > best) {
                    best = via;
                    best_next = next;
                }
            }
            at = best_next;
        }
        return chain;
    }

  private:
    /** A closing edge and the row of its final value. */
    struct Closing
    {
        int fin;
        int consumer;
        Cycles slack;
        std::size_t row;
    };

    /** A distinct carried final value; its sweep covers entities
     *  from its lowest closing consumer on. */
    struct Final
    {
        int fin;
        int lo;
    };

    int size() const { return static_cast<int>(out_.size()); }

    const std::vector<int> &
    succ(int entity) const
    {
        return out_[static_cast<std::size_t>(entity)];
    }

    std::int64_t *
    row(std::size_t r) const
    {
        return pathTo_.data() + r * out_.size();
    }

    /** The largest operand skew over the consumers; with
     *  @p kWitness, names the first consumer that has it. */
    template <bool kWitness, class Lat>
    std::int64_t
    sweepSkew(Lat lat, Cycles exec, SkewWitness *witness) const
    {
        // Edges come grouped by ascending consumer, so a producer
        // fires (at its latest arrival) before its consumers read.
        std::int64_t *fire = fire_.data();
        std::int64_t skew = 0;
        for (std::size_t i = 0; i < inEdges_.size();) {
            const int dst = inEdges_[i].second;
            std::int64_t latest = 0;
            std::int64_t earliest =
                std::numeric_limits<std::int64_t>::max();
            [[maybe_unused]] int first = -1;
            for (; i < inEdges_.size() && inEdges_[i].second == dst;
                 ++i) {
                const int src = inEdges_[i].first;
                const std::int64_t arrival =
                    (src == 0 ? 0
                              : fire[src] +
                                    static_cast<std::int64_t>(exec)) +
                    static_cast<std::int64_t>(lat(src, dst));
                latest = std::max(latest, arrival);
                if constexpr (kWitness)
                    if (arrival < earliest)
                        first = src;
                earliest = std::min(earliest, arrival);
            }
            fire[dst] = latest;
            if constexpr (kWitness)
                if (latest - earliest > skew)
                    *witness = {dst, first};
            skew = std::max(skew, latest - earliest);
        }
        return skew;
    }

    /** Into each final's row: the longest template path from every
     *  entity to that final (exec per stage plus lat per edge), -1
     *  where it is unreachable. */
    template <class Lat>
    void
    sweepFinals(Lat lat, Cycles exec) const
    {
        const std::int64_t stage = static_cast<std::int64_t>(exec);
        for (std::size_t r = 0; r < finals_.size(); ++r) {
            const Final &f = finals_[r];
            std::int64_t *to = row(r);
            std::fill(to + f.fin + 1, to + size(), -1);
            to[f.fin] = stage;
            for (int at = f.fin - 1; at >= f.lo; --at) {
                std::int64_t best = -1;
                for (int next : succ(at))
                    if (to[next] >= 0)
                        best = std::max(
                            best, stage + to[next] +
                                      static_cast<std::int64_t>(
                                          lat(at, next)));
                to[at] = best;
            }
        }
    }

    /** Template successors per entity, in netlist order. */
    std::vector<std::vector<int>> out_;
    /** Template edges (producer, consumer) by ascending consumer. */
    std::vector<std::pair<int, int>> inEdges_;
    std::vector<Closing> closing_;
    std::vector<Final> finals_;
    /** Per entity, a bitset of itself and its template ancestors
     *  (ancestorWords_ words each). */
    std::vector<std::uint64_t> ancestors_;
    std::size_t ancestorWords_ = 0;
    /** Scratch: one longest-path row per final, firing times. */
    mutable std::vector<std::int64_t> pathTo_;
    mutable std::vector<std::int64_t> fire_;
};

// Pass entry points (one translation unit each).
bool passAnalyze(Compilation &cc);     // structure.cc
bool passPredicate(Compilation &cc);   // structure.cc
bool passStructure(Compilation &cc);   // structure.cc
bool passUnroll(Compilation &cc);      // unroll.cc
bool passBind(Compilation &cc);        // bind.cc
bool passLower(Compilation &cc);       // lower.cc
bool passPlace(Compilation &cc);       // backend/placement.cc
bool passRoute(Compilation &cc);       // backend/route.cc
bool passEmit(Compilation &cc);        // backend/emit.cc

} // namespace marionette

#endif // MARIONETTE_COMPILER_PIPELINE_H

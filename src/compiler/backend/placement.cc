/**
 * @file
 * The place pass: FlatPhases -> Mapping.
 *
 * Fuses memory-ordering fences into their loads, checks PE
 * capacity, builds each phase's netlist (generator feeds, node-to-
 * node data edges, loop-carried recurrence closures), and assigns
 * every generator and live DFG node a PE.
 *
 * The placer is timing-driven over the mesh geometry.  The
 * objective is the quantity that actually bounds mapped cycles:
 * each phase's *recurrence initiation interval* — the worst loop-
 * carried cycle latency (execute + mesh transit around the carried
 * closure), which every flattened iteration pays — plus total
 * weighted wirelength as a tiebreaker (feed-forward hops cost
 * pipeline-fill once per kernel, recurrence hops a little more).
 * Greedy seed (critical-cycle nodes first, in dependence order, so
 * the chain lays out mesh-adjacent), then deterministic iterative
 * improvement (relocate/swap moves from a fixed-seed RNG,
 * strictly-improving accepts over the exact objective).
 *
 * Scoring a move (phaseII, through the phase's PhaseTiming — the
 * model the route pass reports too) is nearly all of a compile,
 * and most moves lose.  One relocation scorer and one swap
 * scorer, shared by the random search and the steepest-descent
 * polish, skip the score whenever a move provably cannot win.
 * Each rule is exact, so the search draws, accepts and stops
 * exactly as if every move were scored:
 *
 *  1. No edge gets shorter.  If every edge incident to the moved
 *     entities is at least as long afterwards (for a swap, each
 *     with the other at its new PE), every firing time, carried-
 *     cycle II and the wirelength can only grow.  The skew term can
 *     still shrink (lengthening an early edge delays an early
 *     operand), so when a phase's committed score folds skew in,
 *     phaseII keeps a witness with it: a consumer whose own skew
 *     sets the term and the producer of its earliest operand.  A
 *     move that moves neither that consumer nor the producer nor
 *     any template ancestor of it keeps the earliest arrival while
 *     the latest can only grow, so the skew term cannot fall
 *     either.
 *  2. A move that lost in this state loses again.  A move that does
 *     not beat the current objective is stamped with a generation
 *     that advances on every position change; nothing the score
 *     reads changes within a generation, so a move stamped in the
 *     current one is skipped.
 *  3. One pass per term.  Entity order is topological, so the
 *     carried-cycle and skew sweeps (PhaseTiming) each visit every
 *     entity once.
 *
 * The Fig. 8 AssignmentPlan informs the tiebreak weighting: when
 * the planner maps every block at II = 1 the pipeline has no timing
 * slack and recurrence hops dominate; blocks already time-extended
 * (II > 1) leave slack, so the weight relaxes.
 */

#include <algorithm>
#include <queue>
#include <sstream>

#include "compiler/pipeline.h"
#include "sim/logging.h"
#include "sim/rng.h"

namespace marionette
{

PhaseTiming::PhaseTiming(const FlatPhase &phase,
                         const std::vector<DataEdge> &netlist)
{
    std::vector<int> entity(
        static_cast<std::size_t>(phase.body.numNodes()), -1);
    int n = 1;
    for (NodeId id : phase.liveNodes)
        entity[static_cast<std::size_t>(id)] = n++;
    auto entityOf = [&](NodeId id) {
        return id == invalidNode
                   ? 0
                   : entity[static_cast<std::size_t>(id)];
    };
    out_.resize(static_cast<std::size_t>(n));
    for (const DataEdge &e : netlist) {
        const int src = entityOf(e.src);
        const int dst = entityOf(e.dst);
        if (e.bootWords > 0) {
            std::size_t r = 0;
            while (r < finals_.size() && finals_[r].fin != src)
                ++r;
            if (r == finals_.size())
                finals_.push_back({src, dst});
            finals_[r].lo = std::min(finals_[r].lo, dst);
            closing_.push_back({src, dst, e.bootWords, r});
            continue;
        }
        MARIONETTE_ASSERT(src < dst,
                          "phase timing: template edge %d -> %d "
                          "runs against entity order",
                          src, dst);
        out_[static_cast<std::size_t>(src)].push_back(dst);
        inEdges_.emplace_back(src, dst);
    }
    std::sort(inEdges_.begin(), inEdges_.end(),
              [](const std::pair<int, int> &a,
                 const std::pair<int, int> &b) {
                  return a.second < b.second;
              });
    // Producers precede their consumers, so each ancestor set is
    // complete before a consumer folds it in.
    ancestorWords_ = (static_cast<std::size_t>(n) + 63) / 64;
    ancestors_.assign(static_cast<std::size_t>(n) * ancestorWords_, 0);
    for (int e = 0; e < n; ++e)
        ancestors_[static_cast<std::size_t>(e) * ancestorWords_ +
                   static_cast<std::size_t>(e) / 64] |=
            std::uint64_t{1} << (e % 64);
    for (const auto &[src, dst] : inEdges_)
        for (std::size_t w = 0; w < ancestorWords_; ++w)
            ancestors_[static_cast<std::size_t>(dst) * ancestorWords_ +
                       w] |=
                ancestors_[static_cast<std::size_t>(src) *
                               ancestorWords_ +
                           w];
    pathTo_.assign(finals_.size() * out_.size(), -1);
    fire_.assign(out_.size(), 0);
}

namespace
{

// ------------------------------------------------------------------
// Fence fusion
// ------------------------------------------------------------------

/**
 * Fuse memory-ordering fences into load ordering operands.
 *
 * The workloads' fence idiom threads a store token through the
 * address of a later load so the flattened pipeline respects memory
 * order:
 *
 *     z  = And(tok, 0)        // always 0, carries the dependence
 *     la = Add(v, z)          // address v + 0
 *     lv = Load(la, ...)
 *
 * Both helper operators sit on the loop-carried store chain, so
 * every flattened iteration pays their latency (2 x execute + 2 x
 * mesh transit) for what is purely an ordering edge.  The Load ISA
 * evaluates only operands a (address) and b (predicate); operand c
 * is consumed but ignored — exactly an ordering slot.  When every
 * consumer of the Add is a Load using it as the address with a free
 * c operand (and neither helper is observed or a carried final),
 * the fence collapses to
 *
 *     lv = Load(v, pred, c = tok)
 *
 * which is value-exact (z == 0 always) and ordering-exact (the
 * load still consumes the token before firing), two stages shorter
 * around the recurrence.
 */
int
fuseFenceLoads(FlatPhase &phase,
               const std::vector<Observation> &observations,
               int phase_idx)
{
    Dfg &dfg = phase.body;
    std::set<NodeId> protect;
    for (const CarriedValue &cv : phase.carried)
        if (cv.live && cv.finalVal.kind == OperandKind::Node)
            protect.insert(cv.finalVal.ref);
    for (const Observation &ob : observations)
        if (ob.phase == phase_idx)
            protect.insert(ob.node);

    // consumers[id] = (consumer node, operand slot 0/1/2).
    std::map<NodeId, std::vector<std::pair<NodeId, int>>> consumers;
    for (const DfgNode &n : dfg.nodes()) {
        if (!phase.liveNodes.count(n.id))
            continue;
        const Operand *ops[3] = {&n.a, &n.b, &n.c};
        for (int s = 0; s < 3; ++s)
            if (ops[s]->kind == OperandKind::Node)
                consumers[ops[s]->ref].emplace_back(n.id, s);
    }

    int fused = 0;
    for (const DfgNode &z : dfg.nodes()) {
        if (!phase.liveNodes.count(z.id) || protect.count(z.id))
            continue;
        const Operand *token = zeroAnd(z);
        if (token == nullptr)
            continue;
        for (const auto &[add_id, z_slot] : consumers[z.id]) {
            (void)z_slot;
            if (!phase.liveNodes.count(add_id))
                continue;
            DfgNode &ad = dfg.node(add_id);
            if (ad.op != Opcode::Add || protect.count(ad.id) ||
                ad.c.kind != OperandKind::None)
                continue;
            // The address operand is whichever side is not z.
            Operand v =
                (ad.a.kind == OperandKind::Node &&
                 ad.a.ref == z.id)
                    ? ad.b
                    : ad.a;
            bool other_is_z = ad.b.kind == OperandKind::Node &&
                              ad.b.ref == z.id;
            if (!other_is_z &&
                !(ad.a.kind == OperandKind::Node &&
                  ad.a.ref == z.id))
                continue;
            // Every consumer must be a Load taking the add as its
            // address with a free ordering slot.
            bool all_loads = !consumers[ad.id].empty();
            for (const auto &[ld_id, slot] : consumers[ad.id]) {
                const DfgNode &ld = dfg.node(ld_id);
                all_loads = all_loads && ld.op == Opcode::Load &&
                            slot == 0 &&
                            ld.c.kind == OperandKind::None;
            }
            if (!all_loads)
                continue;
            for (const auto &[ld_id, slot] : consumers[ad.id]) {
                (void)slot;
                DfgNode &ld = dfg.node(ld_id);
                ld.a = v;
                ld.c = *token;
            }
            phase.liveNodes.erase(ad.id);
            ++fused;
        }
        // The fence itself dies once nothing consumes it.
        bool still_used = false;
        for (const DfgNode &n : dfg.nodes()) {
            if (!phase.liveNodes.count(n.id))
                continue;
            for (const Operand *op : {&n.a, &n.b, &n.c})
                still_used = still_used ||
                             (op->kind == OperandKind::Node &&
                              op->ref == z.id);
        }
        if (!still_used)
            phase.liveNodes.erase(z.id);
    }
    return fused;
}

// ------------------------------------------------------------------
// Netlist construction
// ------------------------------------------------------------------

/** Build @p phase's data edges, with each closing edge's boot
 *  words, and mark recurrence cycles. */
std::vector<DataEdge>
buildNetlist(const FlatPhase &phase)
{
    std::vector<DataEdge> edges;
    auto addOperand = [&](const DfgNode &n, const Operand &src,
                          int slot) {
        switch (src.kind) {
          case OperandKind::Input:
            if (src.ref == 0) {
                edges.push_back(DataEdge{invalidNode, n.id, slot});
            } else {
                for (const CarriedValue &cv : phase.carried) {
                    if (!cv.live ||
                        cv.inputIdx != static_cast<int>(src.ref))
                        continue;
                    // A cycle-closing edge: the final value's own
                    // pass-through keeps the single-token ordering
                    // chain, every other consumer runs cv.slack
                    // slots ahead.
                    DataEdge e{cv.finalVal.ref, n.id, slot};
                    e.recurrence = true;
                    e.bootWords = n.id == cv.finalVal.ref ? 1 : cv.slack;
                    e.bootWord = cv.seed;
                    edges.push_back(e);
                }
            }
            break;
          case OperandKind::Node:
            edges.push_back(
                DataEdge{static_cast<NodeId>(src.ref), n.id, slot});
            break;
          default:
            break;
        }
    };
    for (const DfgNode &n : phase.body.nodes()) {
        if (!phase.liveNodes.count(n.id))
            continue;
        addOperand(n, n.a, 0);
        addOperand(n, n.b, 1);
        addOperand(n, n.c, 2);
    }

    // Recurrence marking: nodes lying on a path from a carried
    // input's consumer to the carried final value are on the cycle;
    // node-to-node edges between two such nodes inherit the
    // recurrence weight (the closing edges are marked above).
    std::map<NodeId, std::vector<NodeId>> consumers_of;
    std::map<NodeId, std::vector<NodeId>> producers_of;
    for (const DataEdge &e : edges) {
        if (e.src == invalidNode || e.bootWords > 0)
            continue;
        consumers_of[e.src].push_back(e.dst);
        producers_of[e.dst].push_back(e.src);
    }
    auto bfs = [](const std::map<NodeId, std::vector<NodeId>> &adj,
                  std::vector<NodeId> seed) {
        std::set<NodeId> seen(seed.begin(), seed.end());
        while (!seed.empty()) {
            NodeId at = seed.back();
            seed.pop_back();
            auto it = adj.find(at);
            if (it == adj.end())
                continue;
            for (NodeId next : it->second)
                if (seen.insert(next).second)
                    seed.push_back(next);
        }
        return seen;
    };
    std::set<NodeId> on_cycle;
    for (const DataEdge &closing : edges) {
        if (closing.bootWords == 0)
            continue;
        std::set<NodeId> fwd = bfs(consumers_of, {closing.dst});
        std::set<NodeId> bwd = bfs(producers_of, {closing.src});
        fwd.insert(closing.dst);
        bwd.insert(closing.src);
        for (NodeId n : fwd)
            if (bwd.count(n))
                on_cycle.insert(n);
    }
    for (DataEdge &e : edges)
        if (e.src != invalidNode && on_cycle.count(e.src) &&
            on_cycle.count(e.dst))
            e.recurrence = true;
    return edges;
}

// ------------------------------------------------------------------
// Cost-driven (timing-driven) placer
// ------------------------------------------------------------------

/** One placeable entity: a phase generator or a live DFG node. */
struct Entity
{
    int phase = 0;
    NodeId node = invalidNode; ///< invalidNode = the generator.
    bool nonlinear = false;
    PeId pe = invalidPe;
    /** Incident edges as (peer entity, weight) pairs (tiebreak
     *  wirelength objective; both directions present). */
    std::vector<std::pair<int, std::uint64_t>> adj;
};

/** A phase's timing score (see CostPlacer::phaseII), whether the
 *  operand-skew term was folded into it, and then the consumer
 *  whose skew sets that term (rule 1's witness). */
struct PhaseScore
{
    std::uint64_t ii = 0;
    bool skewed = false;
    PhaseTiming::SkewWitness witness;
};

/** A scored candidate move: the objective it reaches (~0 when it
 *  provably cannot beat the current one), and the wirelength and
 *  phase scores (the moved entities' phases) it would commit. */
struct Move
{
    std::uint64_t obj = ~0ull;
    std::uint64_t wire = 0;
    PhaseScore a;
    PhaseScore b;
};

class CostPlacer
{
  public:
    CostPlacer(Compilation &cc, Mapping &map, int nonlinear_total)
        : cc_(cc),
          map_(map),
          numPes_(cc.config.numPes()),
          exec_(cc.config.executeLatency),
          firstNonlinear_(static_cast<PeId>(
              cc.config.numPes() - cc.config.nonlinearPes)),
          taken_(static_cast<std::size_t>(cc.config.numPes()),
                 false),
          deadPe_(static_cast<std::size_t>(cc.config.numPes()), 0),
          capableFree_(cc.config.nonlinearPes),
          nonlinearTotal_(nonlinear_total),
          nonlinearUnplaced_(nonlinear_total)
    {
        // Dead PEs (and PEs isolated by dead links) are permanently
        // taken in every search round; the capable-PE reserve
        // shrinks by the dead capable ones.
        for (PeId p : cc_.config.faults.effectiveDeadPes(
                 cc_.config.rows, cc_.config.cols)) {
            deadPe_[static_cast<std::size_t>(p)] = 1;
            if (p >= firstNonlinear_)
                ++deadCapable_;
        }
        markDead();
        capableFree_ -= deadCapable_;
        // Every move is scored by mesh latencies between PEs: read
        // them from one table instead of recomputing hop counts.
        const MeshGeometry geom(cc_.config.rows, cc_.config.cols,
                                cc_.config.meshHopLatency);
        peLat_.reserve(static_cast<std::size_t>(numPes_) *
                       static_cast<std::size_t>(numPes_));
        for (PeId p = 0; p < numPes_; ++p)
            for (PeId q = 0; q < numPes_; ++q)
                peLat_.push_back(geom.latency(p, q));
    }

    void
    run()
    {
        buildEntities();

        // Iterated local search, deterministic throughout; the
        // best placement across all rounds wins.  Rounds vary the
        // seed construction — critical-cycle ring embeddings at
        // shifted anchors, a plain greedy-attach round — and after
        // each polish the next round re-embeds whichever cycle is
        // *latency*-critical under the current placement (parallel
        // chains can hide behind the stage-critical one).
        std::map<int, std::vector<int>> override_chains;
        std::vector<PeId> best;
        std::uint64_t best_obj = ~0ull;
        for (int round = 0; round < 14; ++round) {
            reset();
            bool use_ring = round != 1;
            attachTopo_ = round >= 2 && round % 2 == 0;
            int variant = round >= 2 ? (round - 2) / 2 : 0;
            ringShiftR_ = variant % 2;
            ringShiftC_ = variant / 2;
            greedySeed(use_ring ? override_chains
                                : kNoChains,
                       use_ring);
            improve(round);
            refineCritical();
            std::uint64_t obj = objective(iiSum(), wire_);
            if (obj < best_obj) {
                best_obj = obj;
                best.clear();
                for (const Entity &e : entities_)
                    best.push_back(e.pe);
            }
            // Next round embeds the latency-critical chain of the
            // currently-worst phase.
            int worst_phase = 0;
            for (std::size_t p = 0; p < ii_.size(); ++p)
                if (ii_[p].ii > ii_[static_cast<std::size_t>(
                                    worst_phase)]
                                    .ii)
                    worst_phase = static_cast<int>(p);
            std::vector<int> chain =
                criticalCycle(worst_phase, true);
            if (chain.size() >= 4)
                override_chains[worst_phase] = std::move(chain);
        }
        restore(best);
        commit();
    }

    /** Exact per-phase recurrence IIs of the final placement. */
    std::vector<Cycles>
    phaseIIs() const
    {
        std::vector<Cycles> out;
        for (const PhaseScore &score : ii_)
            out.push_back(scoreMaxII(score.ii));
        return out;
    }
    std::uint64_t wirelength() const { return wire_; }
    int improvingMoves() const { return improvingMoves_; }
    std::uint64_t recurrenceWeight() const { return recWeight_; }

  private:
    void
    chooseWeights()
    {
        bool any_ii1 = cc_.plan.blocks.empty();
        for (const auto &[block, ba] : cc_.plan.blocks)
            any_ii1 = any_ii1 || ba.ii <= 1;
        recWeight_ = any_ii1 ? 8 : 4;
    }

    void
    buildEntities()
    {
        chooseWeights();
        for (std::size_t p = 0; p < cc_.phases.size(); ++p) {
            const FlatPhase &phase = cc_.phases[p];
            Entity gen;
            gen.phase = static_cast<int>(p);
            genIdx_.push_back(static_cast<int>(entities_.size()));
            entities_.push_back(gen);
            // PhaseTiming's entity order: a phase's entity k sits at
            // genIdx_[p] + k.
            for (NodeId id : phase.liveNodes) {
                Entity e;
                e.phase = static_cast<int>(p);
                e.node = id;
                e.nonlinear = isNonlinearOp(phase.body.node(id).op);
                nodeIdx_[{static_cast<int>(p), id}] =
                    static_cast<int>(entities_.size());
                entities_.push_back(e);
            }
            timing_.emplace_back(phase, map_.phases[p].edges);
            for (const DataEdge &e : map_.phases[p].edges) {
                int src = e.src == invalidNode
                              ? genIdx_[p]
                              : nodeIdx_.at(
                                    {static_cast<int>(p), e.src});
                int dst =
                    nodeIdx_.at({static_cast<int>(p), e.dst});
                std::uint64_t w = e.recurrence ? recWeight_ : 1;
                entities_[static_cast<std::size_t>(src)]
                    .adj.emplace_back(dst, w);
                entities_[static_cast<std::size_t>(dst)]
                    .adj.emplace_back(src, w);
            }
        }
        ii_.assign(cc_.phases.size(), PhaseScore{});
        relocStamp_.assign(entities_.size() *
                               static_cast<std::size_t>(numPes_),
                           0);
        swapStamp_.assign(entities_.size() * entities_.size(), 0);
        // Positions unknown yet: the seed ring embeds each phase's
        // longest cycle by stage count (latency-free proxy).
        for (std::size_t p = 0; p < cc_.phases.size(); ++p)
            stageChains_.push_back(
                criticalCycle(static_cast<int>(p), false));
    }

    /** Mesh latency from PE @p p to PE @p q. */
    Cycles
    peLat(PeId p, PeId q) const
    {
        return peLat_[static_cast<std::size_t>(p) *
                          static_cast<std::size_t>(numPes_) +
                      static_cast<std::size_t>(q)];
    }

    /** @p phase's pair-latency function for PhaseTiming: mesh
     *  latency between its entities k and l, which sit at
     *  genIdx_[phase] + k and + l.  It captures the arrays, not
     *  `this`: the sweeps then keep them in registers instead of
     *  reloading the members on every edge. */
    auto
    meshLat(int phase) const
    {
        const Entity *ents =
            entities_.data() + genIdx_[static_cast<std::size_t>(phase)];
        return [ents, table = peLat_.data(), n = numPes_](int a,
                                                          int b) {
            return table[static_cast<std::size_t>(ents[a].pe) *
                             static_cast<std::size_t>(n) +
                         static_cast<std::size_t>(ents[b].pe)];
        };
    }

    /**
     * Per-phase timing score under the current positions.  The
     * phase's *observable* II bound — the worst carried-cycle
     * latency, or the channel-depth-amortized operand skew when
     * that is larger — rides in the high bits; the sum of squared
     * per-cycle IIs plus the squared skew ride in the low bits so
     * the search keeps a gradient when two constraints tie at the
     * max — plateaus there are what strand random and steepest
     * moves above the floor.
     */
    PhaseScore
    phaseII(int phase) const
    {
        const PhaseTiming &timing =
            timing_[static_cast<std::size_t>(phase)];
        const auto mesh = meshLat(phase);
        std::uint64_t sq = 0;
        Cycles max_ii = timing.carriedII(mesh, exec_, &sq);
        // Channel depth (8) amortizes skew: it only binds once it
        // exceeds 8x the cycle-driven II.  Folded in II units, and
        // only when it is binding or close to it — for cycle-
        // dominated phases the skew is slack and must not perturb
        // the cycle search's gradient.
        const Cycles skew_ii = timing.skewII(mesh, exec_);
        const bool skewed = 2 * skew_ii > max_ii;
        if (skewed) {
            max_ii = std::max(max_ii, skew_ii);
            sq += static_cast<std::uint64_t>(skew_ii) * skew_ii;
        }
        return {(static_cast<std::uint64_t>(max_ii) << 24) +
                    std::min<std::uint64_t>(sq, (1u << 24) - 1),
                skewed, {}};
    }

    /** Adopt @p score, phaseII's score of the current positions, as
     *  @p phase's committed score, with rule 1's skew witness when
     *  it folds skew in.  Scores are committed far less often than
     *  computed, so only here does the skew sweep name a witness. */
    void
    commitScore(int phase, PhaseScore score)
    {
        if (score.skewed)
            score.witness =
                timing_[static_cast<std::size_t>(phase)].skewWitness(
                    meshLat(phase), exec_);
        ii_[static_cast<std::size_t>(phase)] = score;
    }

    static Cycles
    scoreMaxII(std::uint64_t score)
    {
        return static_cast<Cycles>(score >> 24);
    }

    std::uint64_t
    fullWire() const
    {
        std::uint64_t c = 0;
        for (const Entity &e : entities_)
            for (const auto &[peer, w] : e.adj)
                c += w * peLat(e.pe,
                               entities_[static_cast<std::size_t>(
                                             peer)]
                                   .pe);
        return c / 2; // each edge counted from both ends.
    }

    /** Combined objective: recurrence IIs dominate (they are paid
     *  once per flattened iteration), wirelength breaks ties. */
    std::uint64_t
    objective(std::uint64_t ii_sum, std::uint64_t wire) const
    {
        return ii_sum * 4096 + wire;
    }

    bool
    eligible(const Entity &e, PeId pe) const
    {
        if (taken_[static_cast<std::size_t>(pe)])
            return false;
        if (e.nonlinear)
            return pe >= firstNonlinear_;
        // Ordinary nodes may use capable PEs only while enough
        // remain free for the not-yet-placed nonlinear nodes.
        if (pe >= firstNonlinear_ &&
            capableFree_ <= nonlinearUnplaced_)
            return false;
        return true;
    }

    void
    claim(Entity &e, PeId pe)
    {
        // The capacity pre-flight plus the holdback invariant make
        // exhaustion unreachable; fail fast rather than index with
        // invalidPe if a future change breaks that reasoning.
        MARIONETTE_ASSERT(pe != invalidPe,
                          "placer ran out of eligible PEs");
        taken_[static_cast<std::size_t>(pe)] = true;
        if (pe >= firstNonlinear_)
            --capableFree_;
        if (e.nonlinear)
            --nonlinearUnplaced_;
        e.pe = pe;
    }

    /** Wirelength of edges incident to @p idx with it at @p pe
     *  (peer @p other_idx virtually at @p other_pe for swaps). */
    std::uint64_t
    incidentWire(int idx, PeId pe, int other_idx,
                 PeId other_pe) const
    {
        const Entity &e = entities_[static_cast<std::size_t>(idx)];
        std::uint64_t c = 0;
        for (const auto &[peer, w] : e.adj) {
            PeId q = peer == other_idx
                         ? other_pe
                         : entities_[static_cast<std::size_t>(peer)]
                               .pe;
            c += w * peLat(pe, q);
        }
        return c;
    }

    /**
     * A closed, mesh-adjacent cell sequence of length @p K (even)
     * or @p K with one distance-2 wrap (odd — a closed odd walk
     * cannot exist on the bipartite grid): a 2-row ring, widened
     * with 2-cell bumps into a third row when K exceeds the array
     * width.  Returns empty when the shape does not fit.
     */
    std::vector<PeId>
    ringCells(int K) const
    {
        const int rows = cc_.config.rows;
        const int cols = cc_.config.cols;
        if (K < 4)
            return {};
        int half = (K + 1) / 2;
        int m = std::min(half, cols);
        int extra = 2 * half - 2 * m; // cells still needed (even).
        if (extra > 0 && (rows < 3 || extra / 2 > m - 1))
            return {}; // would need deeper bumps; fall back.
        int height = extra > 0 ? 3 : 2;
        if (rows < height)
            return {};
        int r0 = std::max(0, std::min(rows - height,
                                      rows / 2 - 1 + ringShiftR_));
        int c0 = std::max(
            0, std::min(cols - m, (cols - m) / 2 + ringShiftC_));
        auto cell = [&](int r, int c) {
            return static_cast<PeId>((r0 + r) * cols + c0 + c);
        };
        std::vector<PeId> ring;
        for (int c = 0; c < m; ++c)
            ring.push_back(cell(0, c));
        int c = m - 1;
        while (c >= 0) {
            if (extra > 0 && c > 0) {
                ring.push_back(cell(1, c));
                ring.push_back(cell(2, c));
                ring.push_back(cell(2, c - 1));
                ring.push_back(cell(1, c - 1));
                c -= 2;
                extra -= 2;
            } else {
                ring.push_back(cell(1, c));
                c -= 1;
            }
        }
        // Ring order: take the first K cells; for odd K the wrap
        // from cell K-1 back to cell 0 has distance 2.
        ring.resize(static_cast<std::size_t>(K));
        return ring;
    }

    /** Re-mark the fault plan's dead PEs as taken (after any full
     *  clear of taken_). */
    void
    markDead()
    {
        for (std::size_t p = 0; p < deadPe_.size(); ++p)
            if (deadPe_[p])
                taken_[p] = true;
    }

    /** Back to the unplaced state (between search rounds). */
    void
    reset()
    {
        std::fill(taken_.begin(), taken_.end(), false);
        markDead();
        capableFree_ = cc_.config.nonlinearPes - deadCapable_;
        nonlinearUnplaced_ = nonlinearTotal_;
        for (Entity &e : entities_)
            e.pe = invalidPe;
        std::fill(ii_.begin(), ii_.end(), PhaseScore{});
        wire_ = 0;
        ++gen_;
    }

    /** Adopt a snapshot of entity positions. */
    void
    restore(const std::vector<PeId> &positions)
    {
        std::fill(taken_.begin(), taken_.end(), false);
        markDead();
        capableFree_ = cc_.config.nonlinearPes - deadCapable_;
        for (std::size_t i = 0; i < entities_.size(); ++i) {
            entities_[i].pe = positions[i];
            taken_[static_cast<std::size_t>(positions[i])] = true;
            if (positions[i] >= firstNonlinear_)
                --capableFree_;
        }
        nonlinearUnplaced_ = 0;
        for (std::size_t p = 0; p < cc_.phases.size(); ++p)
            commitScore(static_cast<int>(p), phaseII(static_cast<int>(p)));
        wire_ = fullWire();
        ++gen_;
    }

    void
    greedySeed(const std::map<int, std::vector<int>>
                   &override_chains,
               bool use_ring = true)
    {
        const int rows = cc_.config.rows;
        const int cols = cc_.config.cols;
        const PeId center = static_cast<PeId>(
            (rows / 2) * cols + cols / 2);

        for (std::size_t p = 0; p < cc_.phases.size(); ++p) {
            // Critical-cycle nodes first, in dependence order: the
            // worst carried cycle is laid out as a mesh-adjacent
            // ring, putting it at its latency floor by
            // construction; side chains attach around it and the
            // local search polishes the rest.
            std::vector<int> order;
            std::set<int> enqueued;
            auto ov = override_chains.find(static_cast<int>(p));
            const std::vector<int> &chain =
                ov != override_chains.end() ? ov->second
                                            : stageChains_[p];
            if (!chain.empty() && use_ring) {
                std::vector<PeId> ring =
                    ringCells(static_cast<int>(chain.size()));
                // Claim sequentially, re-checking eligibility
                // against the *evolving* state — the capable-PE
                // holdback depends on what is already claimed, so
                // a batch pre-check could overshoot the reserve
                // and strand a later nonlinear node.  On any
                // failure, unwind and fall back to greedy attach.
                std::size_t claimed = 0;
                bool ring_ok = ring.size() == chain.size();
                for (; ring_ok && claimed < ring.size();
                     ++claimed) {
                    Entity &e = entities_[static_cast<std::size_t>(
                        chain[claimed])];
                    if (!eligible(e, ring[claimed])) {
                        ring_ok = false;
                        break;
                    }
                    claim(e, ring[claimed]);
                }
                if (!ring_ok) {
                    while (claimed-- > 0) {
                        Entity &e = entities_[
                            static_cast<std::size_t>(
                                chain[claimed])];
                        taken_[static_cast<std::size_t>(e.pe)] =
                            false;
                        if (e.pe >= firstNonlinear_)
                            ++capableFree_;
                        if (e.nonlinear)
                            ++nonlinearUnplaced_;
                        e.pe = invalidPe;
                    }
                }
                for (int idx : chain)
                    if (enqueued.insert(idx).second)
                        order.push_back(idx);
            }
            // The rest: either breadth-first over the netlist
            // (clusters grow around the ring) or in dependence
            // order (side chains lay out tight along it) — the
            // two orders favour different kernels, so the search
            // rounds alternate between them.
            if (attachTopo_) {
                if (enqueued.insert(genIdx_[p]).second)
                    order.push_back(genIdx_[p]);
                for (std::size_t i = 0; i < entities_.size(); ++i)
                    if (entities_[i].phase ==
                            static_cast<int>(p) &&
                        enqueued.insert(static_cast<int>(i))
                            .second)
                        order.push_back(static_cast<int>(i));
            } else {
                std::queue<int> q;
                for (int idx : order)
                    q.push(idx);
                if (enqueued.insert(genIdx_[p]).second) {
                    q.push(genIdx_[p]);
                    order.push_back(genIdx_[p]);
                }
                while (!q.empty()) {
                    int at = q.front();
                    q.pop();
                    for (const auto &[peer, w] :
                         entities_[static_cast<std::size_t>(at)]
                             .adj) {
                        (void)w;
                        if (enqueued.insert(peer).second) {
                            q.push(peer);
                            order.push_back(peer);
                        }
                    }
                }
                // Disconnected stragglers still need PEs.
                for (std::size_t i = 0; i < entities_.size(); ++i)
                    if (entities_[i].phase ==
                            static_cast<int>(p) &&
                        !enqueued.count(static_cast<int>(i)))
                        order.push_back(static_cast<int>(i));
            }

            for (int idx : order) {
                Entity &e =
                    entities_[static_cast<std::size_t>(idx)];
                if (e.pe != invalidPe)
                    continue;
                PeId best = invalidPe;
                std::uint64_t best_cost = 0;
                for (PeId pe = 0; pe < cc_.config.numPes(); ++pe) {
                    if (!eligible(e, pe))
                        continue;
                    // Attach next to placed neighbors (latency >= 1
                    // keeps the sum nonzero when any are placed),
                    // else stay central so the cluster can grow.
                    std::uint64_t c = 0;
                    for (const auto &[peer, w] : e.adj) {
                        PeId q2 = entities_[static_cast<
                                                std::size_t>(peer)]
                                      .pe;
                        if (q2 != invalidPe)
                            c += w * peLat(pe, q2);
                    }
                    if (c == 0)
                        c = static_cast<std::uint64_t>(
                            peLat(pe, center));
                    if (best == invalidPe || c < best_cost) {
                        best = pe;
                        best_cost = c;
                    }
                }
                claim(e, best);
            }
        }
        for (std::size_t p = 0; p < cc_.phases.size(); ++p)
            commitScore(static_cast<int>(p), phaseII(static_cast<int>(p)));
        wire_ = fullWire();
    }

    void
    improve(int round)
    {
        if (entities_.size() < 2)
            return;
        // Deterministic seed: the workload name and the search
        // round (not time, not addresses) key the stream, so every
        // compile of a kernel — any thread, any run — walks the
        // same move sequences, while each round explores its own.
        std::uint64_t seed = 0x9e3779b97f4a7c15ull +
                             static_cast<std::uint64_t>(round) *
                                 0xbf58476d1ce4e5b9ull;
        for (char ch : cc_.workload.name())
            seed = seed * 131 + static_cast<unsigned char>(ch);
        Rng rng(seed);

        std::vector<PeId> free_pes;
        for (PeId pe = 0; pe < cc_.config.numPes(); ++pe)
            if (!taken_[static_cast<std::size_t>(pe)])
                free_pes.push_back(pe);

        const int n = static_cast<int>(entities_.size());
        const int budget = std::min(40000, std::max(6000, 120 * n));
        int stale = 0;
        for (int iter = 0; iter < budget && stale < 2500; ++iter) {
            ++stale;
            int ia = static_cast<int>(
                rng.nextBounded(static_cast<std::uint64_t>(n)));
            Entity &a = entities_[static_cast<std::size_t>(ia)];
            bool relocate =
                !free_pes.empty() && rng.nextBool(0.35);
            if (relocate) {
                std::size_t fi = static_cast<std::size_t>(
                    rng.nextBounded(free_pes.size()));
                PeId target = free_pes[fi];
                if (!fits(a, target))
                    continue;
                const Move m = scoreRelocation(ia, target);
                if (m.obj >= current())
                    continue;
                const PeId from = a.pe;
                taken_[static_cast<std::size_t>(from)] = false;
                taken_[static_cast<std::size_t>(target)] = true;
                if (from >= firstNonlinear_)
                    ++capableFree_;
                if (target >= firstNonlinear_)
                    --capableFree_;
                free_pes[fi] = from;
                a.pe = target;
                wire_ = m.wire;
                commitScore(a.phase, m.a);
                ++gen_;
                ++improvingMoves_;
                stale = 0;
                continue;
            }
            int ib = static_cast<int>(
                rng.nextBounded(static_cast<std::uint64_t>(n)));
            if (ia == ib)
                continue;
            Entity &b = entities_[static_cast<std::size_t>(ib)];
            if (!fits(a, b.pe) || !fits(b, a.pe))
                continue;
            const Move m = scoreSwap(ia, ib);
            if (m.obj >= current())
                continue;
            std::swap(a.pe, b.pe);
            wire_ = m.wire;
            commitScore(a.phase, m.a);
            commitScore(b.phase, m.b);
            ++gen_;
            ++improvingMoves_;
            stale = 0;
        }
    }

    /** Current objective. */
    std::uint64_t
    current() const
    {
        return objective(iiSum(), wire_);
    }

    /** @p e may sit on @p pe: nonlinear entities need a capable
     *  PE. */
    bool
    fits(const Entity &e, PeId pe) const
    {
        return !e.nonlinear || pe >= firstNonlinear_;
    }

    /** Rule 1's edge test: no edge incident to @p idx is shorter
     *  with it at @p pe (peer @p other_idx at @p other_pe for
     *  swaps) than under the current positions. */
    bool
    noEdgeShorter(int idx, PeId pe, int other_idx,
                  PeId other_pe) const
    {
        const Entity &e = entities_[static_cast<std::size_t>(idx)];
        for (const auto &[peer, w] : e.adj) {
            (void)w;
            const PeId now =
                entities_[static_cast<std::size_t>(peer)].pe;
            const PeId then = peer == other_idx ? other_pe
                              : peer == idx     ? pe
                                                : now;
            if (peLat(pe, then) < peLat(e.pe, now))
                return false;
        }
        return true;
    }

    /** Rule 1's skew test: moving entities @p ia and @p ib (-1:
     *  none) cannot lower @p phase's skew term — its committed
     *  score has none, or neither entity is the witness consumer
     *  or feeds the witness's earliest operand. */
    bool
    skewHolds(int phase, int ia, int ib) const
    {
        const PhaseScore &score = ii_[static_cast<std::size_t>(phase)];
        if (!score.skewed)
            return true;
        const PhaseTiming &timing =
            timing_[static_cast<std::size_t>(phase)];
        const int base = genIdx_[static_cast<std::size_t>(phase)];
        for (int idx : {ia, ib}) {
            if (idx < 0 ||
                entities_[static_cast<std::size_t>(idx)].phase != phase)
                continue;
            const int k = idx - base;
            if (k == score.witness.consumer ||
                timing.feeds(k, score.witness.earliest))
                return false;
        }
        return true;
    }

    /**
     * Score moving entity @p ia to the free PE @p pe.  Skips
     * phaseII when rule 2 (the move was already rejected at this
     * generation) or rule 1 (no incident edge gets shorter and the
     * skew term cannot fall) proves the move cannot win; stamps it
     * when it does not win.
     */
    Move
    scoreRelocation(int ia, PeId pe)
    {
        std::uint32_t &stamp =
            relocStamp_[static_cast<std::size_t>(ia) *
                            static_cast<std::size_t>(numPes_) +
                        static_cast<std::size_t>(pe)];
        Move m;
        if (stamp == gen_)
            return m;
        Entity &a = entities_[static_cast<std::size_t>(ia)];
        if (!skewHolds(a.phase, ia, -1) ||
            !noEdgeShorter(ia, pe, -1, invalidPe)) {
            const PeId from = a.pe;
            m.wire = wire_ - incidentWire(ia, from, -1, invalidPe) +
                     incidentWire(ia, pe, -1, invalidPe);
            a.pe = pe;
            m.a = phaseII(a.phase);
            a.pe = from;
            m.obj = objective(iiSumWith(a.phase, m.a.ii), m.wire);
        }
        if (m.obj >= current())
            stamp = gen_;
        return m;
    }

    /** Score swapping the PEs of entities @p ia and @p ib, under
     *  the same rules as scoreRelocation (rule 1 checks each
     *  entity with the other at its new PE, and both phases'
     *  witnesses against both entities). */
    Move
    scoreSwap(int ia, int ib)
    {
        const std::size_t n = entities_.size();
        std::uint32_t &stamp =
            swapStamp_[static_cast<std::size_t>(std::min(ia, ib)) *
                           n +
                       static_cast<std::size_t>(std::max(ia, ib))];
        Move m;
        if (stamp == gen_)
            return m;
        Entity &a = entities_[static_cast<std::size_t>(ia)];
        Entity &b = entities_[static_cast<std::size_t>(ib)];
        if (!skewHolds(a.phase, ia, ib) ||
            !skewHolds(b.phase, ia, ib) ||
            !noEdgeShorter(ia, b.pe, ib, a.pe) ||
            !noEdgeShorter(ib, a.pe, ia, b.pe)) {
            m.wire = wire_ -
                     (incidentWire(ia, a.pe, ib, b.pe) +
                      incidentWire(ib, b.pe, ia, a.pe)) +
                     (incidentWire(ia, b.pe, ib, a.pe) +
                      incidentWire(ib, a.pe, ia, b.pe));
            std::swap(a.pe, b.pe);
            m.a = phaseII(a.phase);
            m.b = a.phase == b.phase ? m.a : phaseII(b.phase);
            std::swap(a.pe, b.pe);
            std::uint64_t ii_sum = iiSumWith(a.phase, m.a.ii);
            if (b.phase != a.phase)
                ii_sum = ii_sum -
                         ii_[static_cast<std::size_t>(b.phase)].ii +
                         m.b.ii;
            m.obj = objective(ii_sum, m.wire);
        }
        if (m.obj >= current())
            stamp = gen_;
        return m;
    }

    /** The entities of @p phase's worst carried cycle (see
     *  PhaseTiming::worstCycle): by mesh latency under the current
     *  positions when @p timed, else by stage count. */
    std::vector<int>
    criticalCycle(int phase, bool timed) const
    {
        const PhaseTiming &timing =
            timing_[static_cast<std::size_t>(phase)];
        std::vector<int> chain =
            timed ? timing.worstCycle(meshLat(phase), exec_)
                  : timing.worstCycle(
                        [](int, int) { return Cycles{0}; }, 1);
        for (int &e : chain)
            e += genIdx_[static_cast<std::size_t>(phase)];
        return chain;
    }

    /**
     * Steepest-descent polish on the worst carried cycle: for each
     * entity on it, evaluate every eligible relocation and every
     * same-phase swap on the exact objective and apply the best
     * improving move.  Random hill-climbing plateaus on long
     * cycles (a single random move rarely shortens the max); the
     * exhaustive neighborhood does not.
     */
    void
    refineCritical()
    {
        const int n = static_cast<int>(entities_.size());
        for (int sweep = 0; sweep < 12; ++sweep) {
            bool improved = false;
            for (std::size_t p = 0; p < cc_.phases.size(); ++p) {
                std::vector<int> chain =
                    criticalCycle(static_cast<int>(p), true);
                for (int ia : chain) {
                    Entity &a = entities_[
                        static_cast<std::size_t>(ia)];
                    std::uint64_t cur = current();
                    // Best relocation.
                    int best_kind = 0; // 0 none, 1 reloc, 2 swap.
                    PeId best_pe = invalidPe;
                    int best_ib = -1;
                    std::uint64_t best_obj = cur;
                    PeId from = a.pe;
                    const std::uint64_t from_wire =
                        incidentWire(ia, from, -1, invalidPe);
                    for (PeId pe = 0; pe < cc_.config.numPes();
                         ++pe) {
                        if (taken_[static_cast<std::size_t>(pe)] ||
                            !fits(a, pe))
                            continue;
                        const std::uint64_t obj =
                            scoreRelocation(ia, pe).obj;
                        if (obj < best_obj) {
                            best_obj = obj;
                            best_kind = 1;
                            best_pe = pe;
                        }
                    }
                    // Best same-phase swap.
                    for (int ib = 0; ib < n; ++ib) {
                        if (ib == ia)
                            continue;
                        Entity &b = entities_[
                            static_cast<std::size_t>(ib)];
                        if (b.phase != a.phase)
                            continue;
                        if (!fits(a, b.pe) || !fits(b, a.pe))
                            continue;
                        const std::uint64_t obj =
                            scoreSwap(ia, ib).obj;
                        if (obj < best_obj) {
                            best_obj = obj;
                            best_kind = 2;
                            best_ib = ib;
                        }
                    }
                    if (best_kind == 1) {
                        taken_[static_cast<std::size_t>(from)] =
                            false;
                        taken_[static_cast<std::size_t>(
                            best_pe)] = true;
                        if (from >= firstNonlinear_)
                            ++capableFree_;
                        if (best_pe >= firstNonlinear_)
                            --capableFree_;
                        a.pe = best_pe;
                        std::uint64_t wa = incidentWire(
                            ia, best_pe, -1, invalidPe);
                        wire_ = wire_ - from_wire + wa;
                        commitScore(a.phase, phaseII(a.phase));
                        improved = true;
                        ++gen_;
                        ++improvingMoves_;
                    } else if (best_kind == 2) {
                        Entity &b = entities_[
                            static_cast<std::size_t>(best_ib)];
                        std::uint64_t wb =
                            incidentWire(ia, a.pe, best_ib,
                                         b.pe) +
                            incidentWire(best_ib, b.pe, ia,
                                         a.pe);
                        std::swap(a.pe, b.pe);
                        std::uint64_t wa =
                            incidentWire(ia, a.pe, best_ib,
                                         b.pe) +
                            incidentWire(best_ib, b.pe, ia,
                                         a.pe);
                        wire_ = wire_ - wb + wa;
                        commitScore(a.phase, phaseII(a.phase));
                        improved = true;
                        ++gen_;
                        ++improvingMoves_;
                    }
                }
            }
            if (!improved)
                break;
        }
    }

    std::uint64_t
    iiSum() const
    {
        std::uint64_t s = 0;
        for (const PhaseScore &score : ii_)
            s += score.ii;
        return s;
    }

    std::uint64_t
    iiSumWith(int phase, std::uint64_t value) const
    {
        std::uint64_t s = 0;
        for (std::size_t p = 0; p < ii_.size(); ++p)
            s += p == static_cast<std::size_t>(phase) ? value
                                                      : ii_[p].ii;
        return s;
    }

    void
    commit()
    {
        for (std::size_t p = 0; p < cc_.phases.size(); ++p)
            map_.phases[p].generator =
                entities_[static_cast<std::size_t>(genIdx_[p])].pe;
        for (const auto &[key, idx] : nodeIdx_)
            map_.phases[static_cast<std::size_t>(key.first)]
                .peOf[key.second] =
                entities_[static_cast<std::size_t>(idx)].pe;
        // Drain generators: control-network traffic only, so any
        // free PE serves; take the lowest ids for determinism.
        map_.drainPes.clear();
        for (std::size_t p = 0; p + 1 < cc_.phases.size(); ++p) {
            for (PeId pe = 0; pe < cc_.config.numPes(); ++pe) {
                if (taken_[static_cast<std::size_t>(pe)])
                    continue;
                if (pe >= firstNonlinear_ &&
                    capableFree_ <= nonlinearUnplaced_)
                    continue;
                taken_[static_cast<std::size_t>(pe)] = true;
                if (pe >= firstNonlinear_)
                    --capableFree_;
                map_.drainPes.push_back(pe);
                break;
            }
        }
    }

  private:
    Compilation &cc_;
    Mapping &map_;
    int numPes_;
    /** MeshGeometry::latency for every (from, to) PE pair, row-
     *  major by source. */
    std::vector<Cycles> peLat_;
    Cycles exec_;
    PeId firstNonlinear_;
    std::vector<bool> taken_;
    /** Dead flag per PE from the config's fault plan. */
    std::vector<std::uint8_t> deadPe_;
    /** How many of the nonlinear-capable PEs are dead. */
    int deadCapable_ = 0;
    int capableFree_;
    int nonlinearTotal_;
    int nonlinearUnplaced_;

    /** Empty chain-override map (the plain greedy-attach round). */
    static const std::map<int, std::vector<int>> kNoChains;

    /** Ring anchor variation of the current search round. */
    int ringShiftR_ = 0;
    int ringShiftC_ = 0;
    /** Attach the non-chain entities in dependence order instead
     *  of breadth-first (per-round seed variation). */
    bool attachTopo_ = false;

    std::vector<Entity> entities_;
    std::vector<int> genIdx_; ///< entity index per phase generator.
    std::map<std::pair<int, NodeId>, int> nodeIdx_;
    /** Per phase: its timing model (scratch included, so this
     *  placer's alone). */
    std::vector<PhaseTiming> timing_;
    /** Per phase: its longest cycle by stage count, the seed ring
     *  when no latency-critical chain overrides it. */
    std::vector<std::vector<int>> stageChains_;
    /** Cached per-phase timing scores (see phaseII). */
    std::vector<PhaseScore> ii_;
    /** Rule 2's memo: the generation at which each relocation
     *  (entity x PE) and each swap (lower x higher entity) last
     *  failed to win.  The generation advances on every position
     *  change, so a stamp equal to gen_ means the state is the one
     *  the move already lost in. */
    std::uint32_t gen_ = 1;
    std::vector<std::uint32_t> relocStamp_;
    std::vector<std::uint32_t> swapStamp_;
    std::uint64_t wire_ = 0;
    std::uint64_t recWeight_ = 8;
    int improvingMoves_ = 0;
};

const std::map<int, std::vector<int>> CostPlacer::kNoChains;

} // namespace

// ------------------------------------------------------------------
// Pass 7: place
// ------------------------------------------------------------------

bool
passPlace(Compilation &cc)
{
    const MachineConfig &config = cc.config;

    // First shorten the recurrence itself: memory-ordering fences
    // collapse into load ordering operands (value- and ordering-
    // exact; see fuseFenceLoads).  Each fused fence frees its PEs
    // before the capacity check counts them.
    int fused = 0;
    for (std::size_t p = 0; p < cc.phases.size(); ++p)
        fused += fuseFenceLoads(cc.phases[p], cc.observations,
                                static_cast<int>(p));
    if (fused > 0) {
        std::ostringstream note;
        note << "fused " << fused
             << " memory-ordering fence(s) into load ordering "
                "operands";
        cc.report.note(kPassPlace, note.str());
    }

    // Capacity pre-flight with diagnostics (the builder would
    // assert-fatal instead), against the *alive* pool: the fault
    // plan's dead PEs (and PEs isolated by dead links) are off
    // limits to the placer.
    const PeBudget budget = peBudget(cc);
    const int dead = config.numPes() - budget.alive;
    if (budget.needed > budget.alive) {
        std::ostringstream why;
        if (dead > 0)
            why << "unmappable under faults: kernel needs "
                << budget.needed << " PEs, only " << budget.alive
                << " of " << config.numPes() << " are alive ("
                << dead << " dead)";
        else
            why << "kernel needs " << budget.needed << " PEs, the "
                << config.rows << "x" << config.cols
                << " array has " << config.numPes();
        return cc.fail(kPassPlace, why.str());
    }
    if (budget.nonlinearNeeded > budget.aliveNonlinear) {
        std::ostringstream why;
        if (budget.aliveNonlinear < config.nonlinearPes)
            why << "unmappable under faults: kernel needs "
                << budget.nonlinearNeeded
                << " nonlinear-fitting PEs, only "
                << budget.aliveNonlinear << " of "
                << config.nonlinearPes << " are alive";
        else
            why << "kernel needs " << budget.nonlinearNeeded
                << " nonlinear-fitting PEs, the array has "
                << config.nonlinearPes;
        return cc.fail(kPassPlace, why.str());
    }

    Mapping &map = cc.mapping;
    map.pesUsed = budget.needed;
    map.nonlinearUsed = budget.nonlinearNeeded;
    map.phases.resize(cc.phases.size());
    for (std::size_t p = 0; p < cc.phases.size(); ++p)
        map.phases[p].edges = buildNetlist(cc.phases[p]);

    CostPlacer placer(cc, map, map.nonlinearUsed);
    placer.run();
    std::ostringstream note;
    note << "cost placer: " << map.pesUsed << "/" << config.numPes()
         << " PEs (" << map.nonlinearUsed
         << " nonlinear), recurrence II";
    for (Cycles ii : placer.phaseIIs())
        note << " " << ii;
    note << " cycle(s), weighted wirelength " << placer.wirelength()
         << ", " << placer.improvingMoves()
         << " improving move(s) (recurrence tiebreak weight "
         << placer.recurrenceWeight() << " per Fig. 8 plan)";
    cc.report.note(kPassPlace, note.str());
    return true;
}

} // namespace marionette

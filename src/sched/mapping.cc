#include "sched/mapping.hh"

#include <algorithm>
#include <bit>
#include <cmath>

#include "common/logging.hh"

namespace hydra {

namespace {

size_t
pow2Floor(size_t v)
{
    return v == 0 ? 0 : std::bit_floor(v);
}

/** OpCost scaled by a repetition count. */
OpCost
scaled(OpCost c, uint64_t count)
{
    c.cycles *= count;
    c.hbmBytes *= count;
    for (auto& x : c.cuOps)
        x *= count;
    return c;
}

/** The representative op mix of one whole bootstrap (energy model). */
OpMix
bootstrapCostMix()
{
    return OpMix{24, 32, 48, 64};
}

} // namespace

Tick
bootstrapLocalTicks(const OpCostModel& cost, const NetworkModel& net,
                    const MappingConfig& config, size_t log_slots,
                    size_t limbs)
{
    DftOpTimes t = DftOpTimes::fromCostModel(cost, net, limbs);
    DftPlan plan =
        optimizeDftPlan(config.dftLevels, log_slots, 1, t);
    double dft_s = dftTime(plan, 1, t);
    size_t deg = config.evalExpDegree;
    auto op_s = [&](HeOpType op) {
        return ticksToSeconds(cost.opLatency(op, limbs));
    };
    double evaexp_s = (deg / 2.0 + 1) * op_s(HeOpType::CMult) +
                      static_cast<double>(deg + 1) *
                          (op_s(HeOpType::PMult) + op_s(HeOpType::HAdd));
    double daf_s =
        static_cast<double>(config.dafIters) * op_s(HeOpType::CMult);
    return secondsToTicks(2.0 * dft_s + evaexp_s + daf_s);
}

StepMapper::StepMapper(const OpCostModel& cost, const NetworkModel& net,
                       size_t cards, size_t log_slots,
                       MappingConfig config)
    : cost_(cost), net_(net), cards_(cards), logSlots_(log_slots),
      config_(config)
{
    HYDRA_ASSERT(cards_ >= 1, "need at least one card");
}

Program
StepMapper::mapStep(const Step& step) const
{
    ProgramBuilder pb(cards_);
    mapStepInto(pb, step);
    return pb.take();
}

void
StepMapper::mapStepInto(ProgramBuilder& pb, const Step& step) const
{
    HYDRA_ASSERT(pb.cardCount() == cards_,
                 "program builder card count differs from the mapper's");
    switch (step.kind) {
      case ProcKind::ConvBN:
      case ProcKind::Pooling:
      case ProcKind::FC:
      case ProcKind::PCMM:
      case ProcKind::CCMM:
      case ProcKind::Norm:
        mapUniform(pb, step);
        break;
      case ProcKind::NonLinear:
        mapNonLinear(pb, step);
        break;
      case ProcKind::Bootstrap:
        mapBootstrap(pb, step);
        break;
      default:
        panic("unmapped ProcKind %d", static_cast<int>(step.kind));
    }
}

uint64_t
StepMapper::addTerms(ProgramBuilder& pb, size_t card,
                     std::initializer_list<Term> terms, size_t limbs,
                     uint32_t label, std::vector<uint64_t> wait_msgs) const
{
    Tick dur = 0;
    OpCost c{};
    // Zero-count costed terms still raise c.limbs (max on +=).
    for (const Term& t : terms) {
        if (t.timed)
            dur += t.count * cost_.opLatency(t.op, limbs);
        if (t.costed)
            c += scaled(cost_.cost(t.op, limbs), t.count);
    }
    return pb.addCompute(card, dur, c, label, std::move(wait_msgs));
}

uint64_t
StepMapper::sendCts(ProgramBuilder& pb, size_t src, size_t dst,
                    uint64_t cts, size_t limbs,
                    uint64_t after_compute) const
{
    uint64_t bytes = cts * cost_.ciphertextBytes(limbs);
    return dst == kBroadcast ? pb.broadcastFrom(src, bytes, after_compute)
                             : pb.sendTo(src, dst, bytes, after_compute);
}

void
StepMapper::mapUniform(ProgramBuilder& pb, const Step& step) const
{
    size_t units = step.effectiveUnits();
    size_t c_n = cards_;
    uint32_t label = pb.label(procName(step.kind));
    size_t limbs = step.limbs;

    // Unit share of card c, split into R chunk rounds.
    auto share = [&](size_t c) {
        return units / c_n + (c < units % c_n ? 1 : 0);
    };
    size_t max_share = share(0);
    size_t rounds = std::min<size_t>(config_.maxChunksPerCard,
                                     std::max<size_t>(1, max_share));
    auto chunk_units = [&](size_t c, size_t k) {
        size_t s = share(c);
        return s / rounds + (k < s % rounds ? 1 : 0);
    };

    // Compute chunks (CT_i: convolution inputs are local).  The
    // roofline is taken once on one unit's mix, then repeated per unit.
    OpCost unit_cost = cost_.mixCost(step.perUnit, limbs);
    Tick unit_ticks = cost_.latency(unit_cost);
    std::vector<std::vector<uint64_t>> chunk_id(
        c_n, std::vector<uint64_t>(rounds, 0));
    std::vector<uint64_t> last_id(c_n, 0);
    for (size_t c = 0; c < c_n; ++c) {
        for (size_t k = 0; k < rounds; ++k) {
            size_t u = chunk_units(c, k);
            if (!u)
                continue;
            chunk_id[c][k] = pb.addCompute(c, unit_ticks * u,
                                           scaled(unit_cost, u), label);
            last_id[c] = chunk_id[c][k];
        }
    }

    if (c_n == 1 || step.agg == AggKind::None)
        return;

    if (step.agg == AggKind::BroadcastEach) {
        // Fig. 2: per round, every card broadcasts the output
        // ciphertexts its chunk produced, in card order; transfers
        // overlap the next round's compute.  Unit results multiplex
        // into step.outputCts ciphertexts total.
        auto out_share = [&](size_t c) {
            return step.outputCts / c_n +
                   (c < step.outputCts % c_n ? 1 : 0);
        };
        auto out_chunk = [&](size_t c, size_t k) {
            size_t s = out_share(c);
            return s / rounds + (k < s % rounds ? 1 : 0);
        };
        for (size_t k = 0; k < rounds; ++k) {
            for (size_t s = 0; s < c_n; ++s) {
                size_t cts = out_chunk(s, k);
                if (!cts)
                    continue;
                // Anchor the send on this round's compute chunk (or the
                // card's last chunk if this round had no units).
                uint64_t after = chunk_id[s][k] ? chunk_id[s][k]
                                                : last_id[s];
                sendCts(pb, s, kBroadcast, cts, limbs, after);
            }
        }
        return;
    }

    // ReduceTree: pairwise tree reduction of partial results to card 0,
    // then one broadcast so every card holds the combined output.
    for (size_t stride = 1; stride < c_n; stride <<= 1) {
        for (size_t dst = 0; dst + stride < c_n; dst += 2 * stride) {
            size_t src = dst + stride;
            uint64_t msg = sendCts(pb, src, dst, 1, limbs, last_id[src]);
            last_id[dst] = addTerms(pb, dst, {{HeOpType::HAdd, 1}}, limbs,
                                    label, {msg});
        }
    }
    uint64_t msg = sendCts(pb, 0, kBroadcast, 1, limbs, last_id[0]);
    for (size_t c = 1; c < c_n; ++c)
        addTerms(pb, c, {}, limbs, label, {msg});
}

void
StepMapper::mapNonLinear(ProgramBuilder& pb, const Step& step) const
{
    size_t units = step.effectiveUnits();
    if (cards_ == 1 || units >= cards_) {
        mapUniform(pb, step);
        return;
    }
    // Fewer evaluations than cards: split each polynomial evaluation
    // over a card group (Alg. 1).
    size_t group = pow2Floor(cards_ / units);
    uint32_t label = pb.label(procName(step.kind));
    size_t degree = step.polyDegree ? step.polyDegree : 15;
    for (size_t u = 0; u < units; ++u)
        mapPolyEvalTree(pb, u * group, group, degree, step.limbs, label);
}

void
StepMapper::mapPolyEvalTree(ProgramBuilder& pb, size_t base,
                            size_t group, size_t degree, size_t limbs,
                            uint32_t label) const
{
    if (group <= 1 || degree < 4) {
        // Whole evaluation on one node.
        uint64_t terms = degree + 1;
        uint64_t cms = degree >= 2 ? degree / 2 + 1 : 0;
        addTerms(pb, base,
                 {{HeOpType::CMult, cms},
                  {HeOpType::PMult, terms},
                  {HeOpType::HAdd, terms}},
                 limbs, label);
        return;
    }

    size_t poly_depth = std::bit_width(degree); // ceil(log2(deg+1))
    size_t card_depth = std::countr_zero(pow2Floor(group));
    size_t tree_depth =
        std::min(poly_depth >= 2 ? poly_depth - 2 : 0, card_depth);
    size_t m = size_t{1} << tree_depth;

    std::vector<uint64_t> last_id(m, 0);
    std::vector<std::vector<uint64_t>> wait_msgs(m);

    // Phase A: power ladder x^2, x^4, ... distributed to lower-numbered
    // nodes; each level's product is forwarded to the mirror node.
    for (size_t i = 0; i < m; ++i)
        last_id[i] = addTerms(pb, base + i, {{HeOpType::CMult, 1}},
                              limbs, label); // x^2
    for (size_t j = 1; j <= tree_depth; ++j) {
        size_t cnt = m >> j;
        for (size_t i = 0; i < cnt; ++i) {
            last_id[i] = addTerms(pb, base + i, {{HeOpType::CMult, 1}},
                                  limbs, label);
            size_t dst = i + cnt;
            uint64_t msg =
                sendCts(pb, base + i, base + dst, 1, limbs, last_id[i]);
            wait_msgs[dst].push_back(msg);
        }
    }

    // Phase B: each node evaluates its sub-polynomial with the shared
    // powers (add_and_multiply_const / multiply_and_add of Alg. 1).
    uint64_t terms = (degree + m) / m;
    uint64_t local_cms =
        std::max<uint64_t>(1, (degree >= 2 ? degree / 2 : 1) / m);
    for (size_t i = 0; i < m; ++i)
        last_id[i] = addTerms(pb, base + i,
                              {{HeOpType::CMult, local_cms},
                               {HeOpType::PMult, terms},
                               {HeOpType::HAdd, terms}},
                              limbs, label, std::move(wait_msgs[i]));

    // Phase C: tree merge -- the upper node multiplies by the splitting
    // power and sends, the lower node accumulates (Alg. 1 final loop).
    for (size_t num = m; num > 1; num /= 2) {
        size_t half = num / 2;
        for (size_t i = 0; i < half; ++i) {
            size_t upper = i + half;
            uint64_t mul_id = addTerms(pb, base + upper,
                                       {{HeOpType::CMult, 1}}, limbs, label);
            uint64_t msg =
                sendCts(pb, base + upper, base + i, 1, limbs, mul_id);
            last_id[i] = addTerms(pb, base + i, {{HeOpType::HAdd, 1}},
                                  limbs, label, {msg});
        }
    }
}

DftPlan
StepMapper::dftPlanFor(size_t group_cards, size_t limbs) const
{
    DftOpTimes t = DftOpTimes::fromCostModel(cost_, net_, limbs);
    return optimizeDftPlan(config_.dftLevels, logSlots_, group_cards, t);
}

void
StepMapper::mapDftLevels(ProgramBuilder& pb, size_t base, size_t group,
                         const DftPlan& plan, size_t limbs,
                         uint32_t label) const
{
    for (const auto& lvl : plan.levels) {
        uint64_t b = lvl.bs;
        uint64_t gs_s = lvl.gsPerNode(group);
        std::vector<uint64_t> last_id(group, 0);
        for (size_t i = 0; i < group; ++i) {
            size_t card = base + i;
            // Baby steps are replicated on every node (Section III-B
            // point (1): aggregating distributed bs is inefficient).
            addTerms(pb, card, {{HeOpType::Rotate, b}}, limbs, label);
            // Giant steps assigned to this node + local accumulation.
            last_id[i] = addTerms(
                pb, card,
                {{HeOpType::PMult, gs_s * b},
                 {HeOpType::HAdd, gs_s * (b - 1) + (gs_s - 1)},
                 {HeOpType::Rotate, gs_s}},
                limbs, label);
        }
        if (group > 1) {
            // Tree aggregation of the per-node partial sums (Fig. 3(d)).
            for (size_t num = group; num > 1; num /= 2) {
                size_t half = num / 2;
                for (size_t i = 0; i < half; ++i) {
                    size_t upper = i + half;
                    uint64_t msg = sendCts(pb, base + upper, base + i, 1,
                                           limbs, last_id[upper]);
                    last_id[i] =
                        addTerms(pb, base + i, {{HeOpType::HAdd, 1}},
                                 limbs, label, {msg});
                }
            }
            // The leader redistributes the level result for the next
            // level's baby steps.
            for (size_t i = 1; i < group; ++i) {
                uint64_t msg =
                    sendCts(pb, base, base + i, 1, limbs, last_id[0]);
                addTerms(pb, base + i, {}, limbs, label, {msg});
            }
        }
    }
}

void
StepMapper::mapBootstrap(ProgramBuilder& pb, const Step& step) const
{
    size_t boots = std::max<size_t>(1, step.parallelism);
    uint32_t label = pb.label(procName(step.kind));

    size_t group = boots >= cards_ ? 1 : pow2Floor(cards_ / boots);
    if (group <= 1) {
        // Data-parallel: each card refreshes its share locally.
        Tick boot_ticks = bootstrapLocalTime(step.limbs);
        OpCost boot_cost = cost_.mixCost(bootstrapCostMix(), step.limbs);
        for (size_t c = 0; c < cards_; ++c) {
            size_t s = boots / cards_ + (c < boots % cards_ ? 1 : 0);
            if (s)
                pb.addCompute(c, boot_ticks * s, scaled(boot_cost, s),
                              label);
        }
        return;
    }

    DftPlan plan = dftPlanFor(group, step.limbs);

    size_t n_groups = std::min(boots, cards_ / group);
    for (size_t g = 0; g < n_groups; ++g) {
        size_t base = g * group;
        size_t reps = boots / n_groups + (g < boots % n_groups ? 1 : 0);
        for (size_t r = 0; r < reps; ++r) {
            // CoeffToSlot.
            mapDftLevels(pb, base, group, plan, step.limbs, label);
            // EvaExp (Alg. 1 tree over the group).
            mapPolyEvalTree(pb, base, group, config_.evalExpDegree,
                            step.limbs, label);
            // Double-angle + sine extraction on the group leader
            // (limited parallelism: the paper's Boot scaling is the
            // most modest of all procedures).  rot/ha/pm are timed but
            // only the CMult iterations carry hardware cost.
            addTerms(pb, base,
                     {{HeOpType::CMult, config_.dafIters},
                      {HeOpType::Rotate, 1, true, false},
                      {HeOpType::HAdd, 1, true, false},
                      {HeOpType::PMult, 1, true, false}},
                     step.limbs, label);
            // SlotToCoeff.
            mapDftLevels(pb, base, group, plan, step.limbs, label);
        }
    }
}

Tick
StepMapper::bootstrapLocalTime(size_t limbs) const
{
    return bootstrapLocalTicks(cost_, net_, config_, logSlots_, limbs);
}

} // namespace hydra

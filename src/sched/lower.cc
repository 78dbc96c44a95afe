#include "sched/lower.hh"

#include <map>

#include "common/logging.hh"
#include "model/dft_model.hh"

namespace hydra {

namespace {

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

/** Per-lowering context: the bound models plus small memo tables. */
struct LowerCtx
{
    const OpCostModel& cost;
    const NetworkModel& net;
    const MappingConfig& config;
    size_t logSlots;
    /** Bootstrap local time per limb count (the Eq.-1 search is the
     *  one expensive lookup; every card of a data-parallel bootstrap
     *  shares it). */
    std::map<size_t, Tick> bootTicks;

    Tick
    bootstrapTicks(size_t limbs)
    {
        auto it = bootTicks.find(limbs);
        if (it == bootTicks.end())
            it = bootTicks
                     .emplace(limbs,
                              bootstrapLocalTicks(cost, net, config,
                                                  logSlots, limbs))
                     .first;
        return it->second;
    }
};

/** Duration of one plan op under the bound models. */
Tick
lowerDuration(LowerCtx& ctx, const PlanOp& op)
{
    switch (op.kind) {
      case PlanOpKind::OpList: {
        Tick dur = 0;
        for (const auto& t : op.terms)
            if (t.timed)
                dur += t.count * ctx.cost.opLatency(t.op, op.limbs);
        return dur;
      }
      case PlanOpKind::MixRepeat:
        // Roofline once, then repeat — matches the uniform-step chunk
        // formula (latency of one unit's mix times unit count).
        return ctx.cost.latency(ctx.cost.mixCost(op.mix, op.limbs)) *
               op.repeat;
      case PlanOpKind::BootstrapLocal:
        return ctx.bootstrapTicks(op.limbs) * op.repeat;
    }
    panic("unlowered PlanOpKind %d", static_cast<int>(op.kind));
}

/** Hardware cost of one plan op under the bound cost model. */
OpCost
lowerCost(LowerCtx& ctx, const PlanOp& op)
{
    OpCost c{};
    switch (op.kind) {
      case PlanOpKind::OpList:
        for (const auto& t : op.terms)
            if (t.costed)
                c += scaled(ctx.cost.cost(t.op, op.limbs), t.count);
        return c;
      case PlanOpKind::MixRepeat:
      case PlanOpKind::BootstrapLocal:
        return scaled(ctx.cost.mixCost(op.mix, op.limbs), op.repeat);
    }
    panic("uncosted PlanOpKind %d", static_cast<int>(op.kind));
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

Program
lowerPlan(const LogicalPlan& plan, const OpCostModel& cost,
          const NetworkModel& net, const MappingConfig& config)
{
    ProgramBuilder pb(plan.cards);
    LowerCtx ctx{cost, net, config, plan.logSlots, {}};

    // Plan-local -> builder-issued id rebinding (ids are dense from 1).
    std::vector<uint32_t> labelMap(plan.labels.size());
    for (size_t i = 0; i < plan.labels.size(); ++i)
        labelMap[i] = pb.label(plan.labels[i]);
    std::vector<uint64_t> opId(plan.ops.size() + 1, 0);
    std::vector<uint64_t> msgId(plan.transfers.size() + 1, 0);

    for (const auto& ev : plan.events) {
        if (ev.kind == PlanEvent::Kind::Compute) {
            const PlanOp& op = plan.ops[ev.index];
            std::vector<uint64_t> waits;
            waits.reserve(op.waitMsgs.size());
            for (uint64_t m : op.waitMsgs) {
                HYDRA_ASSERT(m < msgId.size() && msgId[m],
                             "plan op waits on a not-yet-emitted msg");
                waits.push_back(msgId[m]);
            }
            opId[op.id] = pb.addCompute(op.card, lowerDuration(ctx, op),
                                        lowerCost(ctx, op),
                                        labelMap[op.label],
                                        std::move(waits));
        } else {
            const PlanTransfer& t = plan.transfers[ev.index];
            uint64_t after = 0;
            if (t.afterCompute) {
                HYDRA_ASSERT(t.afterCompute < opId.size() &&
                                 opId[t.afterCompute],
                             "plan transfer anchored on a "
                             "not-yet-emitted op");
                after = opId[t.afterCompute];
            }
            uint64_t bytes = t.cts * cost.ciphertextBytes(t.limbs);
            msgId[t.msg] = t.dst == kBroadcast
                               ? pb.broadcastFrom(t.src, bytes, after)
                               : pb.sendTo(t.src, t.dst, bytes, after);
        }
    }
    return pb.take();
}

} // namespace hydra

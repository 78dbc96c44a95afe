#include "sched/graph/netcompile.hh"

#include <algorithm>
#include <iterator>

#include "common/logging.hh"

namespace hydra {

namespace {

/** Minimum level headroom the boot-plan pass must leave at the next
 *  refresh point (never run the chain to its last limb). */
constexpr size_t kMinLevel = 2;

bool
fusableHead(ProcKind k)
{
    return k == ProcKind::ConvBN || k == ProcKind::Pooling;
}

/**
 * Eq. 1 level walk: merge adjacent bootstraps, elide refreshes the
 * remaining level makes redundant, re-level survivors to the tracked
 * level.  Chain semantics follow the topological order.
 */
std::vector<Step>
bootPlanPass(const std::vector<Step>& in, size_t max_limbs,
             size_t log_slots, const OpCostModel& cost,
             const NetworkModel& net, const MappingConfig& mapping,
             size_t cards, NetOptReport& rep)
{
    // Sub-pass 1: coalesce runs of adjacent bootstraps (no compute
    // between them) into one combined refresh of both ciphertext sets,
    // so the level walk below sees a well-defined refresh chain.
    std::vector<Step> merged;
    merged.reserve(in.size());
    for (const Step& s : in) {
        if (s.kind == ProcKind::Bootstrap && !merged.empty() &&
            merged.back().kind == ProcKind::Bootstrap) {
            merged.back().parallelism += s.parallelism;
            merged.back().outputCts = merged.back().parallelism;
            ++rep.bootsMerged;
            continue;
        }
        merged.push_back(s);
    }

    // Depth still to burn after position `from` before the next
    // refresh opportunity (the next Bootstrap) or the end of the net.
    auto depthAhead = [&](size_t from) {
        size_t d = 0;
        for (size_t j = from;
             j < merged.size() && merged[j].kind != ProcKind::Bootstrap;
             ++j)
            d += layerDepth(merged[j]);
        return d;
    };

    // Sub-pass 2: Eq. 1 level walk — elide redundant refreshes,
    // re-level surviving layers.
    std::vector<Step> out;
    out.reserve(merged.size());
    size_t level = max_limbs;
    for (size_t i = 0; i < merged.size(); ++i) {
        const Step& s = merged[i];
        if (s.kind == ProcKind::Bootstrap) {
            size_t need = depthAhead(i + 1);
            if (level > need && level - need >= kMinLevel) {
                // The chain reaches the next refresh with headroom:
                // this bootstrap is redundant.  Credit its Eq. 1
                // single-card cost times the per-card refresh count.
                ++rep.bootsElided;
                size_t per_card = (s.parallelism + cards - 1) /
                                  std::max<size_t>(1, cards);
                rep.modeledBootSavings +=
                    bootstrapLocalTicks(cost, net, mapping, log_slots,
                                        s.limbs) *
                    per_card;
                continue;
            }
            out.push_back(s);
            level = max_limbs;
            continue;
        }
        Step t = s;
        size_t d = layerDepth(t);
        if (t.limbs > level) {
            // Rescale placement: run the layer at the level the chain
            // actually has here, not the calibrated average.
            t.limbs = std::max<size_t>(1, level);
            ++rep.relevelled;
        }
        out.push_back(std::move(t));
        level = level > d ? level - d : 1;
    }
    return out;
}

} // namespace

std::vector<ExecUnit>
partitionNetwork(const PrototypeSpec& spec, const OpCostModel& cost,
                 const NetworkModel& net, const NetworkGraph& graph,
                 OptLevel level, NetOptReport& report)
{
    std::vector<uint32_t> order;
    SpecError err;
    if (!graph.topoOrder(order, err))
        fatal("partitionNetwork on an invalid graph: %s",
              err.describe().c_str());

    std::vector<Step> steps;
    steps.reserve(order.size());
    for (uint32_t id : order)
        steps.push_back(graph.nodes[id].step);

    report = NetOptReport{};
    report.level = level;
    size_t cards = spec.cluster.totalCards();
    bool aggressive = level == OptLevel::Aggressive;

    if (aggressive)
        steps = bootPlanPass(steps, graph.maxLimbs, graph.logSlots, cost,
                             net, spec.mapping, cards, report);

    // Unit partition: fuse-linear groups first, then prefetch windows
    // over the resulting unit list.
    std::vector<ExecUnit> units;
    size_t n = steps.size();
    for (size_t i = 0; i < n;) {
        size_t j = i + 1;
        if (aggressive && fusableHead(steps[i].kind)) {
            while (j < n && fusableHead(steps[j].kind))
                ++j;
            if (j < n && steps[j].kind == ProcKind::FC)
                ++j; // a terminal FC joins the linear group
        }
        ExecUnit u;
        u.lead = steps[i].kind;
        u.name = steps[i].name;
        if (j - i >= 2) {
            u.kind = ExecUnit::Kind::Fused;
            u.name += ".." + steps[j - 1].name;
            // Intermediate outputs stay card-local: the next member's
            // co-resident units consume them without the cross-card
            // broadcast.
            for (size_t k = i; k + 1 < j; ++k)
                if (steps[k].agg != AggKind::None) {
                    steps[k].agg = AggKind::None;
                    ++report.fusedSteps;
                }
        }
        u.steps.assign(std::make_move_iterator(steps.begin() + i),
                       std::make_move_iterator(steps.begin() + j));
        units.push_back(std::move(u));
        i = j;
    }

    if (aggressive && net.overlapsCompute()) {
        // Prefetch: merge up to kPrefetchWindow consecutive units when
        // the earlier unit ends in a cross-card aggregation (there is a
        // transfer to hide) and neither side is a bootstrap barrier.
        std::vector<ExecUnit> merged;
        for (size_t i = 0; i < units.size();) {
            ExecUnit u = std::move(units[i]);
            size_t j = i + 1;
            while (j < units.size() && j - i < kPrefetchWindow) {
                const Step& last = u.steps.back();
                std::vector<Step>& next = units[j].steps;
                if (last.kind == ProcKind::Bootstrap ||
                    next.front().kind == ProcKind::Bootstrap ||
                    last.agg == AggKind::None)
                    break;
                u.steps.insert(u.steps.end(),
                               std::make_move_iterator(next.begin()),
                               std::make_move_iterator(next.end()));
                u.kind = ExecUnit::Kind::Prefetch;
                ++report.prefetchedBoundaries;
                ++j;
            }
            if (u.kind == ExecUnit::Kind::Prefetch)
                u.name =
                    u.steps.front().name + ".." + u.steps.back().name;
            merged.push_back(std::move(u));
            i = j;
        }
        units = std::move(merged);
    }
    return units;
}

} // namespace hydra

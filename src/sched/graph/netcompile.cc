#include "sched/graph/netcompile.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hydra {

const char*
netUnitKindName(NetUnit::Kind k)
{
    switch (k) {
      case NetUnit::Kind::Single: return "single";
      case NetUnit::Kind::Fused: return "fused";
      case NetUnit::Kind::Prefetch: return "prefetch";
    }
    return "?";
}

std::string
NetOptReport::describe() const
{
    if (level != OptLevel::Aggressive)
        return strf("net passes [%s]: step-identical lowering",
                    optLevelName(level));
    return strf("net passes [%s]: %llu boot(s) elided (+%llu merged, "
                "~%.3f s modeled), %llu layer(s) re-levelled, %llu "
                "fused, %llu boundary(ies) prefetched",
                optLevelName(level),
                static_cast<unsigned long long>(bootsElided),
                static_cast<unsigned long long>(bootsMerged),
                ticksToSeconds(modeledBootSavings),
                static_cast<unsigned long long>(relevelled),
                static_cast<unsigned long long>(fusedSteps),
                static_cast<unsigned long long>(prefetchedBoundaries));
}

std::string
unitCacheKey(const PrototypeSpec& spec, const ClusterConfig& exec_cluster,
             const ClusterConfig& net_cluster, size_t ring_n,
             size_t log_slots, const std::vector<const Step*>& members,
             NetUnit::Kind kind, OptLevel level)
{
    std::string key = machineCacheKey(spec, exec_cluster, net_cluster,
                                      ring_n, log_slots, level);
    for (const Step* s : members)
        key += stepContentKey(*s);
    key += strf("|u=%s,%zu", netUnitKindName(kind), members.size());
    return key;
}

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

NetPartition
partitionNetwork(const PrototypeSpec& spec, const OpCostModel& cost,
                 const NetworkModel& net, const NetworkGraph& graph,
                 OptLevel level)
{
    std::vector<uint32_t> order;
    SpecError err;
    if (!graph.topoOrder(order, err))
        fatal("compileNetwork on an invalid graph: %s",
              err.describe().c_str());

    std::vector<Step> steps;
    steps.reserve(order.size());
    for (uint32_t id : order)
        steps.push_back(graph.nodes[id].step);

    NetPartition out;
    out.report.level = level;
    size_t cards = spec.cluster.totalCards();
    bool aggressive = level == OptLevel::Aggressive;

    if (aggressive)
        steps = bootPlanPass(steps, graph.maxLimbs, graph.logSlots,
                             cost, net, spec.mapping, cards,
                             out.report);

    // Unit partition: fuse-linear groups first, then prefetch windows
    // over the resulting unit list.
    std::vector<NetUnit> units;
    size_t n = steps.size();
    for (size_t i = 0; i < n;) {
        if (aggressive && fusableHead(steps[i].kind)) {
            size_t j = i + 1;
            while (j < n && fusableHead(steps[j].kind))
                ++j;
            if (j < n && steps[j].kind == ProcKind::FC)
                ++j; // a terminal FC joins the linear group
            if (j - i >= 2) {
                NetUnit u;
                u.kind = NetUnit::Kind::Fused;
                u.lead = steps[i].kind;
                for (size_t k = i; k < j; ++k) {
                    u.nodes.push_back(static_cast<uint32_t>(k));
                    // Intermediate outputs stay card-local: the next
                    // member's co-resident units consume them without
                    // the cross-card broadcast.
                    if (k + 1 < j && steps[k].agg != AggKind::None) {
                        steps[k].agg = AggKind::None;
                        ++out.report.fusedSteps;
                    }
                }
                u.name = steps[i].name + ".." + steps[j - 1].name;
                units.push_back(std::move(u));
                i = j;
                continue;
            }
        }
        NetUnit u;
        u.lead = steps[i].kind;
        u.name = steps[i].name;
        u.nodes.push_back(static_cast<uint32_t>(i));
        units.push_back(std::move(u));
        ++i;
    }

    if (aggressive && net.overlapsCompute()) {
        // Prefetch: merge up to kPrefetchWindow consecutive units when
        // the earlier unit ends in a cross-card aggregation (there is a
        // transfer to hide) and neither side is a bootstrap barrier.
        std::vector<NetUnit> merged;
        for (size_t i = 0; i < units.size();) {
            NetUnit u = std::move(units[i]);
            size_t j = i + 1;
            while (j < units.size() &&
                   j - i < kPrefetchWindow) {
                const Step& last = steps[u.nodes.back()];
                const Step& head = steps[units[j].nodes.front()];
                if (last.kind == ProcKind::Bootstrap ||
                    head.kind == ProcKind::Bootstrap ||
                    last.agg == AggKind::None)
                    break;
                u.nodes.insert(u.nodes.end(), units[j].nodes.begin(),
                               units[j].nodes.end());
                u.kind = NetUnit::Kind::Prefetch;
                ++out.report.prefetchedBoundaries;
                ++j;
            }
            if (u.kind == NetUnit::Kind::Prefetch)
                u.name = steps[u.nodes.front()].name + ".." +
                         steps[u.nodes.back()].name;
            merged.push_back(std::move(u));
            i = j;
        }
        units = std::move(merged);
    }

    out.steps = std::move(steps);
    out.units = std::move(units);
    return out;
}

std::shared_ptr<const CompiledStep>
compileNetUnit(const PrototypeSpec& spec,
               const ClusterConfig& exec_cluster,
               const ClusterConfig& net_cluster, const OpCostModel& cost,
               const NetworkModel& net, size_t log_slots,
               const std::vector<const Step*>& members,
               NetUnit::Kind kind, OptLevel level)
{
    size_t cards = exec_cluster.totalCards();
    std::string key;
    if (members.size() == 1)
        key = stepCacheKey(spec, exec_cluster, net_cluster, cost.n(),
                           log_slots, *members[0], level);
    else
        key = unitCacheKey(spec, exec_cluster, net_cluster, cost.n(),
                           log_slots, members, kind, level);
    return ProgramCache::global().getOrCompile(key, [&] {
        if (members.size() == 1)
            return compileStep(cost, net, cards, log_slots,
                               spec.mapping, *members[0], level);
        StepMapper mapper(cost, net, cards, log_slots, spec.mapping);
        PlanBuilder pb(cards);
        pb.setLogSlots(log_slots);
        for (const Step* s : members)
            mapper.planStepInto(pb, *s);
        CompiledStep cs;
        Program prog = lowerPlan(pb.take(), cost, net, spec.mapping);
        cs.program = optimizeProgram(std::move(prog), level,
                                     net.overlapsCompute(),
                                     &cs.report);
        return cs;
    });
}

CompiledNetwork
compileNetwork(const PrototypeSpec& spec, const OpCostModel& cost,
               const NetworkModel& net, const NetworkGraph& graph,
               OptLevel level)
{
    NetPartition part = partitionNetwork(spec, cost, net, graph, level);

    // Rebuild the post-pass graph (chain in execution order) so dumps
    // and unit node ids reflect what actually compiles.
    WorkloadModel post;
    post.name = graph.name;
    post.logSlots = graph.logSlots;
    post.maxLimbs = graph.maxLimbs;
    post.steps = part.steps;
    CompiledNetwork out;
    out.graph = NetworkGraph::fromModel(post);
    out.units = std::move(part.units);
    out.report = part.report;

    // Compile every unit through the shared cache.  Single-layer units
    // use the step compiler's exact key, so the graph path shares
    // entries with step-list plans and ServeSim.
    out.programs.reserve(out.units.size());
    for (const NetUnit& u : out.units) {
        std::vector<const Step*> members;
        members.reserve(u.nodes.size());
        for (uint32_t id : u.nodes)
            members.push_back(&part.steps[id]);
        out.programs.push_back(
            compileNetUnit(spec, spec.cluster, spec.cluster, cost, net,
                           graph.logSlots, members, u.kind, level));
    }
    return out;
}

} // namespace hydra

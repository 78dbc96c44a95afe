#include "sched/execplan.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hydra {

namespace {

/** Window-independent plan identity (see ExecPlan::key). */
std::string
planKey(const PrototypeSpec& spec, const OpCostModel& cost,
        size_t log_slots, const std::string& name,
        const std::vector<const Step*>& pre_pass, OptLevel level)
{
    std::string key = machineCacheKey(spec, spec.cluster, spec.cluster,
                                      cost.n(), log_slots, level);
    key += "|w=" + name;
    for (const Step* s : pre_pass)
        key += stepContentKey(*s);
    return key;
}

/** The unit's ProgramCache key for a given executing cluster; mirrors
 *  compileNetUnit's key choice so skeleton plans advertise the exact
 *  key a later materialization resolves. */
std::string
unitKeyFor(const PrototypeSpec& spec, const ClusterConfig& exec_cluster,
           const ClusterConfig& net_cluster, const OpCostModel& cost,
           size_t log_slots, const ExecUnit& unit, OptLevel level)
{
    if (unit.steps.size() == 1)
        return stepCacheKey(spec, exec_cluster, net_cluster, cost.n(),
                            log_slots, unit.steps[0], level);
    std::vector<const Step*> members;
    members.reserve(unit.steps.size());
    for (const Step& s : unit.steps)
        members.push_back(&s);
    return unitCacheKey(spec, exec_cluster, net_cluster, cost.n(),
                        log_slots, members, unit.kind, level);
}

/** Materialize programs for the windowed units of `plan`. */
void
materialize(ExecPlan& plan, const PrototypeSpec& spec,
            const OpCostModel& cost, const NetworkModel& net,
            PlanWindow window)
{
    size_t end = plan.units.size();
    size_t first = std::min(window.first, end);
    if (window.count < end - first)
        end = first + window.count;
    for (size_t i = first; i < end; ++i)
        plan.units[i].compiled =
            compilePlanUnit(spec, plan.cluster, plan.cluster, cost, net,
                            plan.logSlots, plan.units[i], plan.level);
}

} // namespace

std::shared_ptr<const CompiledStep>
compilePlanUnit(const PrototypeSpec& spec,
                const ClusterConfig& exec_cluster,
                const ClusterConfig& net_cluster, const OpCostModel& cost,
                const NetworkModel& net, size_t log_slots,
                const ExecUnit& unit, OptLevel level)
{
    std::vector<const Step*> members;
    members.reserve(unit.steps.size());
    for (const Step& s : unit.steps)
        members.push_back(&s);
    return compileNetUnit(spec, exec_cluster, net_cluster, cost, net,
                          log_slots, members, unit.kind, level);
}

ExecPlan
compilePlan(const PrototypeSpec& spec, const OpCostModel& cost,
            const NetworkModel& net, const WorkloadModel& workload,
            OptLevel level, PlanWindow window)
{
    if (level == OptLevel::Aggressive)
        // The cross-step passes need the graph form; fromModel lifts
        // the step list to the equivalent chain (same names, same
        // content, identity topo order).
        return compilePlan(spec, cost, net,
                           NetworkGraph::fromModel(workload), level,
                           window);

    // Step-list fast path: one Single unit per step, keyed exactly
    // like the pre-ExecPlan runner (stepCacheKey), no graph machinery.
    ExecPlan plan;
    plan.machine = spec.name;
    plan.workload = workload.name;
    plan.level = level;
    plan.cluster = spec.cluster;
    plan.logSlots = workload.logSlots;
    plan.report.level = level;

    std::vector<const Step*> pre;
    pre.reserve(workload.steps.size());
    for (const Step& s : workload.steps)
        pre.push_back(&s);
    plan.key = planKey(spec, cost, workload.logSlots, workload.name,
                       pre, level);

    plan.units.reserve(workload.steps.size());
    for (const Step& s : workload.steps) {
        ExecUnit u;
        u.kind = NetUnit::Kind::Single;
        u.name = s.name;
        u.lead = s.kind;
        u.steps.push_back(s);
        u.key = unitKeyFor(spec, plan.cluster, plan.cluster, cost,
                           plan.logSlots, u, level);
        plan.units.push_back(std::move(u));
    }
    materialize(plan, spec, cost, net, window);
    return plan;
}

ExecPlan
compilePlan(const PrototypeSpec& spec, const OpCostModel& cost,
            const NetworkModel& net, const NetworkGraph& graph,
            OptLevel level, PlanWindow window)
{
    ExecPlan plan;
    plan.machine = spec.name;
    plan.workload = graph.name;
    plan.level = level;
    plan.cluster = spec.cluster;
    plan.logSlots = graph.logSlots;

    // Identity over the PRE-pass content: the passes are deterministic
    // functions of it, so post-pass rewrites need not enter the key.
    std::vector<uint32_t> order;
    SpecError err;
    if (!graph.topoOrder(order, err))
        fatal("compilePlan on an invalid graph: %s",
              err.describe().c_str());
    std::vector<const Step*> pre;
    pre.reserve(order.size());
    for (uint32_t id : order)
        pre.push_back(&graph.nodes[id].step);
    plan.key =
        planKey(spec, cost, graph.logSlots, graph.name, pre, level);

    NetPartition part = partitionNetwork(spec, cost, net, graph, level);
    plan.report = part.report;
    plan.units.reserve(part.units.size());
    for (const NetUnit& nu : part.units) {
        ExecUnit u;
        u.kind = nu.kind;
        u.name = nu.name;
        u.lead = nu.lead;
        u.steps.reserve(nu.nodes.size());
        for (uint32_t id : nu.nodes)
            u.steps.push_back(part.steps[id]);
        u.key = unitKeyFor(spec, plan.cluster, plan.cluster, cost,
                           plan.logSlots, u, level);
        plan.units.push_back(std::move(u));
    }
    materialize(plan, spec, cost, net, window);
    return plan;
}

ExecPlan
fusePlan(const PrototypeSpec& spec, const OpCostModel& cost,
         const ExecPlan& plan)
{
    ExecPlan fused = plan;
    fused.key += "|fused";
    fused.units.clear();
    if (plan.units.empty())
        return fused;

    ExecUnit u;
    u.kind = NetUnit::Kind::Fused;
    u.lead = plan.units.front().lead;
    for (const ExecUnit& pu : plan.units)
        u.steps.insert(u.steps.end(), pu.steps.begin(), pu.steps.end());
    u.name = u.steps.size() == 1
                 ? u.steps.front().name
                 : u.steps.front().name + ".." + u.steps.back().name;
    u.key = unitKeyFor(spec, fused.cluster, fused.cluster, cost,
                       fused.logSlots, u, fused.level);
    fused.units.push_back(std::move(u));
    return fused;
}

} // namespace hydra

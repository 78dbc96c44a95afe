#include "sched/execplan.hh"

#include "common/logging.hh"
#include "sched/graph/netcompile.hh"

namespace hydra {

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

ExecPlan
compilePlan(const PrototypeSpec& spec, const OpCostModel& cost,
            const NetworkModel& net, const NetworkGraph& graph,
            OptLevel level)
{
    ExecPlan plan;
    plan.machine = spec.name;
    plan.workload = graph.name;
    plan.level = level;
    plan.cluster = spec.cluster;
    plan.logSlots = graph.logSlots;
    plan.units =
        partitionNetwork(spec, cost, net, graph, level, plan.report);
    return plan;
}

} // namespace hydra

#include "sched/runner.hh"

#include <algorithm>
#include <memory>
#include <unordered_map>

#include "common/logging.hh"
#include "sched/execplan.hh"

namespace hydra {

std::unique_ptr<NetworkModel>
PrototypeSpec::makeNetwork() const
{
    if (netKind == NetKind::Switched)
        return std::make_unique<SwitchedNetwork>(net, cluster);
    return std::make_unique<HostMediatedNetwork>(hostNet, cluster);
}

bool
CardGroup::alignedTo(const ClusterConfig& cluster) const
{
    if (cards.empty())
        return false;
    for (size_t i = 1; i < cards.size(); ++i)
        if (cards[i] != cards[i - 1] + 1)
            return false;
    return cards.front() % cluster.cardsPerServer == 0 &&
           cards.size() % cluster.cardsPerServer == 0;
}

CardGroup
CardGroup::contiguous(size_t base, size_t count)
{
    CardGroup g;
    g.cards.resize(count);
    for (size_t i = 0; i < count; ++i)
        g.cards[i] = base + i;
    return g;
}

PrototypeSpec
groupSubSpec(const PrototypeSpec& spec, const CardGroup& group)
{
    PrototypeSpec sub = spec;
    if (group.alignedTo(spec.cluster))
        sub.cluster =
            ClusterConfig{group.size() / spec.cluster.cardsPerServer,
                          spec.cluster.cardsPerServer};
    else
        // Ragged groups lose the server structure: model them as one
        // switch, like the degraded-survivors path.
        sub.cluster = ClusterConfig{1, group.size()};
    return sub;
}

Tick
InferenceResult::procTime(ProcKind k) const
{
    Tick sum = 0;
    for (const auto& s : steps)
        if (s.kind == k)
            sum += s.stats.makespan;
    return sum;
}

Tick
InferenceResult::procComputeFloor(ProcKind k) const
{
    Tick sum = 0;
    for (const auto& s : steps)
        if (s.kind == k)
            sum += s.stats.maxComputeBusy();
    return sum;
}

double
InferenceResult::procCommFraction(ProcKind k) const
{
    Tick t = procTime(k);
    if (t == 0)
        return 0.0;
    return static_cast<double>(t - procComputeFloor(k)) /
           static_cast<double>(t);
}

double
InferenceResult::commFraction() const
{
    if (total.makespan == 0)
        return 0.0;
    Tick floor = 0;
    for (const auto& s : steps)
        floor += s.stats.maxComputeBusy();
    return static_cast<double>(total.makespan - floor) /
           static_cast<double>(total.makespan);
}

InferenceRunner::InferenceRunner(PrototypeSpec spec, size_t ring_n)
    : spec_(std::move(spec)),
      cost_(spec_.fpga, ring_n, spec_.dnum),
      net_(spec_.makeNetwork())
{
}

std::shared_ptr<const ExecPlan>
InferenceRunner::materialize(ExecPlan plan) const
{
    PrototypeSpec sub = spec_;
    sub.cluster = plan.cluster;
    std::unique_ptr<NetworkModel> net = sub.makeNetwork();
    for (ExecUnit& u : plan.units)
        u.compiled = compileUnit(sub, plan.cluster, plan.cluster, cost_,
                                 *net, plan.logSlots, u.steps, plan.level);
    return std::make_shared<ExecPlan>(std::move(plan));
}

std::shared_ptr<const ExecPlan>
InferenceRunner::planFor(const WorkloadModel& workload,
                         OptLevel level) const
{
    return materialize(compilePlan(spec_, cost_, *net_,
                                   NetworkGraph::fromModel(workload),
                                   level));
}

std::shared_ptr<const ExecPlan>
InferenceRunner::planFor(const NetworkGraph& graph, OptLevel level) const
{
    SpecError err;
    if (graph.validate(err))
        return materialize(compilePlan(spec_, cost_, *net_, graph, level));
    auto plan = std::make_shared<ExecPlan>();
    plan->machine = spec_.name;
    plan->workload = graph.name;
    plan->level = level;
    plan->cluster = spec_.cluster;
    plan->error.kind = RunError::Kind::InvalidProgram;
    plan->error.message = "planFor: " + err.describe();
    return plan;
}

std::shared_ptr<const ExecPlan>
InferenceRunner::planForJob(const WorkloadModel& workload,
                            const CardGroup& group, OptLevel level) const
{
    PrototypeSpec sub = groupSubSpec(spec_, group);
    std::unique_ptr<NetworkModel> net = sub.makeNetwork();
    return materialize(compilePlan(
        sub, cost_, *net, NetworkGraph::fromModel(workload), level));
}

std::shared_ptr<const ExecPlan>
InferenceRunner::fusePlan(const ExecPlan& plan) const
{
    ExecPlan fused = plan;
    fused.units.clear();
    if (!plan.units.empty()) {
        ExecUnit u;
        u.kind = ExecUnit::Kind::Fused;
        u.lead = plan.units.front().lead;
        for (const ExecUnit& pu : plan.units)
            u.steps.insert(u.steps.end(), pu.steps.begin(),
                           pu.steps.end());
        u.name = u.steps.size() == 1
                     ? u.steps.front().name
                     : u.steps.front().name + ".." + u.steps.back().name;
        fused.units.push_back(std::move(u));
    }
    return materialize(std::move(fused));
}

InferenceResult
InferenceRunner::runPlan(const ExecPlan& plan, size_t first_unit,
                         size_t num_units) const
{
    return execFaulted(
        spec_, *net_, plan,
        CardGroup::contiguous(0, spec_.cluster.totalCards()).cards, 0, {},
        {}, first_unit, num_units);
}

InferenceResult
InferenceRunner::runJob(const ExecPlan& plan, const CardGroup& group,
                        Tick start_tick, const FaultPlan& faults,
                        const RetryPolicy& retry, size_t first_unit,
                        size_t num_units) const
{
    if (group.cards.empty()) {
        InferenceResult result;
        result.machine = spec_.name;
        result.workload = plan.workload;
        result.error.kind = RunError::Kind::InvalidProgram;
        result.error.message = "runJob: empty card group";
        return result;
    }
    PrototypeSpec sub = groupSubSpec(spec_, group);
    std::unique_ptr<NetworkModel> net = sub.makeNetwork();
    return execFaulted(sub, *net, plan, group.cards, start_tick, faults,
                       retry, first_unit, num_units);
}

namespace {

/** Project a machine-global fault plan onto the live cards of a job:
 *  per-card entries are re-keyed to local indices, entries for cards
 *  outside `alive` are dropped, and kill ticks stay absolute. */
FaultPlan
planForGroup(const FaultPlan& plan, const std::vector<size_t>& alive)
{
    FaultPlan out = plan;
    out.stragglers.clear();
    out.cardFailAt.clear();
    for (size_t i = 0; i < alive.size(); ++i) {
        auto s = plan.stragglers.find(alive[i]);
        if (s != plan.stragglers.end())
            out.stragglers[i] = s->second;
        auto k = plan.cardFailAt.find(alive[i]);
        if (k != plan.cardFailAt.end())
            out.cardFailAt[i] = k->second;
    }
    return out;
}

} // namespace

InferenceResult
InferenceRunner::execFaulted(const PrototypeSpec& sub,
                             const NetworkModel& net,
                             const ExecPlan& plan,
                             const std::vector<size_t>& cards,
                             Tick start_tick, const FaultPlan& faults,
                             const RetryPolicy& retry, size_t first_unit,
                             size_t num_units) const
{
    InferenceResult result;
    result.machine = spec_.name;
    result.workload = plan.workload;
    if (!plan.error.ok()) {
        result.error = plan.error;
        return result;
    }
    if (plan.cluster != sub.cluster) {
        result.error.kind = RunError::Kind::InvalidProgram;
        result.error.message = strf(
            "runJob: plan compiled for %zu server(s) x %zu card(s), "
            "group is %zu x %zu",
            plan.cluster.servers, plan.cluster.cardsPerServer,
            sub.cluster.servers, sub.cluster.cardsPerServer);
        return result;
    }

    // alive[i] = original machine index of the card locally mapped
    // as i.
    std::vector<size_t> alive = cards;
    ClusterConfig cluster = sub.cluster;
    // Every Program below comes from compileSteps(), which validated
    // it once at compile time.
    auto executor = std::make_unique<ClusterExecutor>(cluster, net);
    executor->setRetryPolicy(retry);
    executor->setPrevalidate(false);
    // The plan's programs fit the group until a card dies; from then
    // on every attempt compiles for the survivors.
    bool degraded = false;

    size_t end = plan.units.size();
    first_unit = std::min(first_unit, end);
    if (num_units < end - first_unit)
        end = first_unit + num_units;

    // A fault-free run of a compiled program is start-invariant (the
    // time origin only shifts timestamps), and within this call the
    // cluster, network and retry policy are fixed: a program's first
    // successful run stands for all its repeats.  Keys hold the
    // programs alive, so a ProgramCache eviction cannot recycle an
    // address into a false hit.
    std::unordered_map<std::shared_ptr<const CompiledStep>, RunStats>
        firstRuns;
    auto complete = [&](const ExecUnit& u, const RunStats& stats) {
        result.total.append(stats, net.stepSyncLatency());
        result.steps.push_back(StepResult{u.name, u.lead, stats});
        result.stepEnds.push_back(result.total.makespan);
    };

    for (size_t ui = first_unit; ui < end; ++ui) {
        const ExecUnit& u = plan.units[ui];
        for (;;) {
            // The executor's clock IS the run's clock: each unit starts
            // where the run has advanced to, and kill ticks need no
            // shifting.  A fault-free run skips the per-attempt
            // projection (the executor's plan stays empty).
            executor->setTimeOrigin(start_tick + result.total.makespan);
            if (!faults.empty())
                executor->setFaultPlan(planForGroup(faults, alive));

            // The compiled program is fault-independent: only the
            // executor's fault plan differs between attempts, so the
            // cache stays valid across retries and re-dispatches.
            auto compiled =
                degraded ? compileUnit(sub, cluster, sub.cluster, cost_,
                                       net, plan.logSlots, u.steps,
                                       plan.level)
                         : u.compiled;
            auto first = faults.empty() ? firstRuns.find(compiled)
                                        : firstRuns.end();
            if (first != firstRuns.end()) {
                complete(u, first->second);
                ++result.replayedUnits;
                break;
            }
            RunResult rr = executor->tryRun(compiled->program);
            if (rr.ok()) {
                complete(u, rr.stats);
                if (faults.empty())
                    firstRuns.emplace(std::move(compiled),
                                      std::move(rr.stats));
                break;
            }
            if (rr.error.kind != RunError::Kind::CardFailed) {
                // Exhausted retries / deadlock: unrecoverable.
                result.error = std::move(rr.error);
                return result;
            }

            // Permanent card failure: charge the aborted attempt,
            // shrink the cluster, and re-dispatch this unit onto the
            // survivors (modelled as a flat single-switch cluster).
            size_t dead = rr.error.card;
            result.recoveryPenalty += rr.stats.makespan;
            result.total.append(rr.stats, 0);
            result.failedCards.push_back(alive[dead]);
            ++result.redispatches;
            alive.erase(alive.begin() + dead);
            if (alive.empty()) {
                result.error = std::move(rr.error);
                result.error.message += " (no surviving cards left)";
                return result;
            }
            cluster = ClusterConfig{1, alive.size()};
            degraded = true;
            executor = std::make_unique<ClusterExecutor>(cluster, net);
            executor->setRetryPolicy(retry);
            executor->setPrevalidate(false);
        }
    }
    return result;
}

} // namespace hydra

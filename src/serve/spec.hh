/**
 * @file
 * Multi-tenant serving specification.
 *
 * A ServeSpec describes one serving experiment deterministically from
 * a seed: which tenants issue requests (open-loop Poisson streams,
 * closed-loop client pools, or explicit trace entries), which workload
 * model each tenant runs, request priorities, the admission-queue
 * bound, and how the machine's cards are partitioned into serving
 * groups.  Like FaultPlan, it parses from / describes to a compact
 * CLI string so experiments are reproducible from one command line.
 */

#ifndef HYDRA_SERVE_SPEC_HH
#define HYDRA_SERVE_SPEC_HH

#include <cstdint>
#include <string>
#include <vector>

#include "common/parse.hh"
#include "sched/passes.hh"
#include "sim/eventq.hh"

namespace hydra {

/** How a tenant generates load. */
enum class ArrivalMode : uint8_t
{
    /** Open loop: Poisson arrivals at a fixed mean rate, regardless of
     *  completions (models independent external users). */
    Open,
    /** Closed loop: a fixed pool of clients, each issuing its next
     *  request a think time after its previous one completes. */
    Closed,
    /** Trace replay: arrivals only at the spec's explicit `at=` ticks. */
    Trace,
};

const char* arrivalModeName(ArrivalMode m);

/** How admitted requests are picked for idle card groups. */
enum class SchedPolicy : uint8_t
{
    /** One run-queue shard per workload class: highest priority tier
     *  first, then least-served tenant, then admission order.  Groups
     *  only serve their own workload class; jobs run to completion. */
    Fifo,
    /** CAKE-style SLO scheduler (DESIGN.md §14): per-tenant deficit
     *  accounting (virtual service time charged at dispatch), sharded
     *  per-group run queues with work stealing across groups and
     *  clusters, step-boundary preemption of hog jobs when a
     *  higher-credit request blows its tier's wait budget, AQM tier
     *  demotion for tenants running a deep deficit, and a starvation
     *  kick that force-promotes anything queued past the hard cap. */
    Cake,
};

const char* schedPolicyName(SchedPolicy p);

/** One tenant of the serving experiment. */
struct TenantSpec
{
    std::string name;
    ArrivalMode mode = ArrivalMode::Open;
    /** Registry name of the workload this tenant runs ("resnet18"...). */
    std::string workload;
    /** Open loop: mean arrival rate in requests per (virtual) second. */
    double rate = 1.0;
    /** Closed loop: concurrent clients. */
    size_t clients = 1;
    /** Closed loop: think time between completion and next request. */
    double thinkSeconds = 0.0;
    /** Priority tier; 0 is the highest, larger numbers yield. */
    int priority = 1;
    /** Compilation level of this tenant's ExecPlans (`opt=`): Safe
     *  runs the legacy one-unit-per-layer path; Aggressive enables
     *  the cross-step passes (boot-plan, fuse-linear, prefetch). */
    OptLevel opt = OptLevel::Safe;
};

/** One explicit trace-replay arrival. */
struct TraceEntry
{
    double atSeconds = 0.0;
    std::string tenant;
    std::string workload;
};

/** One requested card group of the fleet partition. */
struct GroupPlan
{
    /** Workload class the group is dedicated to. */
    std::string workload;
    /** Cards carved out of the machine (contiguous allocation). */
    size_t cards = 1;
    /** Fault-aware repartitioning floor: when permanent card deaths
     *  shrink the group below this, it is dissolved and its survivors
     *  donated to a sibling group of the same workload. */
    size_t minCards = 1;
};

/** Full serving-experiment description. */
struct ServeSpec
{
    /** Seed for every stochastic draw (arrival processes). */
    uint64_t seed = 1;
    /** Federated fault domains: the machine is replicated this many
     *  times behind a health-gated routing tier; each cluster gets its
     *  own fleet partition (same group plan) and cards are numbered
     *  federation-globally (cluster c owns [c*P, (c+1)*P)). */
    size_t clusters = 1;
    /** Arrival horizon in virtual seconds; admitted work drains after. */
    double durationSeconds = 5.0;
    /** Admission-queue bound; arrivals beyond it are shed. */
    size_t queueCapacity = 64;
    /** Safety cap on generated requests (open loop + closed loop). */
    uint64_t maxRequests = 200000;
    /** Admission scheduling policy (`sched=fifo|cake`). */
    SchedPolicy sched = SchedPolicy::Fifo;
    /** Cake: base wait budget of tier 0 in virtual seconds; tier t's
     *  budget is waitBudgetSeconds * (t + 1).  A request queued past
     *  its budget triggers a step-boundary preemption attempt against
     *  the lowest-credit running job. */
    double waitBudgetSeconds = 1.0;
    /** Cake: starvation hard cap — any request queued this long is
     *  force-promoted ahead of every tier and deficit rank. */
    double kickSeconds = 10.0;
    /** Cake: per-tier preemption quantum in virtual seconds — the
     *  minimum slice a job owned by a tier-t tenant runs before a
     *  step-boundary preemption check (tiers past the last entry use
     *  the last entry).  Empty = legacy behaviour: every tier slices
     *  at the tier-0 wait budget. */
    std::vector<double> quantumSeconds;
    std::vector<TenantSpec> tenants;
    std::vector<TraceEntry> trace;
    /** Fleet partition plan; empty = split the machine evenly across
     *  the workload classes the tenants use. */
    std::vector<GroupPlan> groups;

    Tick durationTicks() const { return secondsToTicks(durationSeconds); }

    /** Cake wait budget of priority tier `tier` (0 = tightest). */
    Tick
    waitBudgetTicks(int tier) const
    {
        double scale = tier < 0 ? 1.0 : static_cast<double>(tier) + 1.0;
        return secondsToTicks(waitBudgetSeconds * scale);
    }

    /** Cake starvation hard cap. */
    Tick kickTicks() const { return secondsToTicks(kickSeconds); }

    /** Cake preemption quantum of (effective) priority tier `tier`:
     *  quantumSeconds clamped to its last entry, or the tier-0 wait
     *  budget when no quanta were spelled. */
    Tick
    quantumTicks(int tier) const
    {
        if (quantumSeconds.empty())
            return waitBudgetTicks(0);
        size_t i = tier < 0 ? 0 : static_cast<size_t>(tier);
        if (i >= quantumSeconds.size())
            i = quantumSeconds.size() - 1;
        return secondsToTicks(quantumSeconds[i]);
    }

    /**
     * Parse a CLI serve spec: comma-separated items.
     *   seed=N  clusters=N  duration=S  queue=N  requests=N
     *   sched=fifo | sched=cake[:WAIT_S[:KICK_S[:Q0_S[:Q1_S...]]]]
     *                                     (Qt_S: preemption quantum of
     *                                      tier t; last entry covers
     *                                      all deeper tiers)
     *   tenant=NAME:open:WL:RATE          (Poisson, RATE req/s)
     *   tenant=NAME:closed:WL:CLIENTS[:THINK_S]
     *   tenants=COUNT:PREFIX:MODE:WL:...  (bulk: COUNT tenants named
     *                                      PREFIX#0..#COUNT-1, same
     *                                      tail syntax as tenant=)
     *   prio=NAME:P                       (priority tier; 0 highest;
     *                                      NAME* prefix-matches)
     *   opt=safe|aggressive               (spec-wide compile-level
     *                                      default; once per spec)
     *   opt=NAME:safe|aggressive          (per-tenant level; NAME*
     *                                      prefix-matches; overrides
     *                                      the spec default)
     *   at=SEC:NAME:WL                    (trace entry; repeatable)
     *   group=WL:CARDS[:MIN]              (partition plan; repeatable)
     * Calls fatal() on malformed input (CLI-facing helper).
     */
    static ServeSpec parse(const std::string& spec);

    /**
     * Library-facing parse: on success fills `out` and returns true;
     * on malformed input returns false with `err` naming the offending
     * token.  Never exits, never crashes, never silently defaults a
     * field the spec spelled wrong.
     */
    static bool tryParse(const std::string& spec, ServeSpec& out,
                         SpecError& err);

    /** One-line human summary. */
    std::string describe() const;

    /** The distinct workload names the spec references, in first-use
     *  order (tenants, then trace, then groups): the sim's workload
     *  table. */
    std::vector<std::string> workloadTable() const;
};

} // namespace hydra

#endif // HYDRA_SERVE_SPEC_HH

#include "serve/federation.hh"

#include <algorithm>
#include <map>
#include <memory>

#include "common/logging.hh"
#include "sched/execplan.hh"
#include "sched/progcache.hh"
#include "serve/cake.hh"
#include "serve/jobcache.hh"
#include "serve/workload_gen.hh"
#include "workloads/model.hh"

namespace hydra {

namespace {

/** Failover budget per request: re-queue attempts before shedding. */
constexpr uint32_t kFailoverBudget = 3;

/** pickShard's answer when no shard can take a request. */
constexpr size_t kNoShard = ~size_t{0};

/**
 * The fault plan one cluster's jobs see: card-granularity entries
 * re-keyed from federation-global to cluster-local indices, cluster
 * entries stripped (the routing tier interprets those), and the seed
 * decorrelated per cluster so identical clusters don't fail in
 * lockstep.  Cluster 0 keeps the plan's own seed, so a single-cluster
 * federation is tick-identical to the pre-federation serving engine.
 */
FaultPlan
clusterLocalPlan(const FaultPlan& f, size_t c, size_t cards_per)
{
    FaultPlan out = f;
    out.cardFailAt.clear();
    out.stragglers.clear();
    out.clusterKillAt.clear();
    out.clusterPartitionAt.clear();
    if (c)
        out.seed =
            f.seed + 0x9e3779b97f4a7c15ULL * static_cast<uint64_t>(c);
    for (const auto& [card, tick] : f.cardFailAt)
        if (card / cards_per == c)
            out.cardFailAt[card % cards_per] = tick;
    for (const auto& [card, factor] : f.stragglers)
        if (card / cards_per == c)
            out.stragglers[card % cards_per] = factor;
    return out;
}

/** What one dispatched job did, carried into its completion event. */
struct JobOutcome
{
    bool ok = true;
    Tick span = 0;
    std::vector<size_t> failedCards; // cluster-local indices
    uint64_t redispatches = 0;
    Tick recoveryPenalty = 0;
    uint64_t timedOut = 0;
    /** Absolute serve-clock ticks of completed step boundaries. */
    std::vector<Tick> stepEnds;
};

/** An in-flight job; erased on completion, cluster-kill abort, or a
 *  cake step-boundary preemption. */
struct JobRecord
{
    Request req;
    size_t cluster = 0;
    size_t group = 0; // cluster-local group id
    Tick start = 0;
    JobOutcome out;
    /** Unit count of the plan this dispatch runs: the bound for the
     *  request's resumable firstStep (a plan-unit index). */
    size_t units = 0;
    /** Fairness weight of this dispatch (2 for spillover traffic). */
    uint64_t weight = 1;

    // Cake slicing state (never armed under fifo).
    /** Absolute tick of the next armed slice check (0 = none). */
    Tick sliceEnd = 0;
    /** Steps of this dispatch's window complete at sliceEnd. */
    size_t sliceSteps = 0;
};

/** An in-flight half-open canary probe. */
struct ProbeRecord
{
    size_t cluster = 0;
    size_t group = 0;
    Tick span = 0;
    bool ok = false;
};

/** Runtime state of one cluster of the federation. */
struct ClusterRt
{
    size_t id = 0;
    FleetPartition fleet;
    std::vector<bool> cardDead;
    /** Card-granularity plan re-keyed to this cluster's local cards. */
    FaultPlan faults;
    bool killed = false;
    /** A probe wants to launch but every live group was busy; the next
     *  completion on this cluster launches it. */
    bool probePending = false;
    uint64_t completed = 0;
    /** In-flight jobs this cluster lost to its cluster_kill. */
    uint64_t lostJobs = 0;
    uint64_t canaries = 0;

    ClusterRt(size_t id_, const PrototypeSpec& spec,
              const ServeSpec& serve,
              const std::vector<std::string>& wl_names, FaultPlan local)
        : id(id_), fleet(spec, serve, wl_names), faults(std::move(local))
    {
        cardDead.assign(spec.cluster.totalCards(), false);
    }
};

/** One federated run's mutable state; lives for the duration of run(). */
struct Engine
{
    const PrototypeSpec& spec;
    const ServeSpec& serve;
    const FaultPlan& faults;
    const RetryPolicy& retry;

    InferenceRunner runner; // shared: clusters are identical machines
    std::vector<std::string> wlNames;
    std::vector<WorkloadModel> models;

    EventQueue eq;
    WorkloadGen gen;
    std::vector<ClusterRt> clusters;
    HealthMonitor health;
    size_t cardsPer = 0;

    std::vector<uint64_t> servedPerTenant;
    /** In-flight jobs and probes, keyed by a shared token counter; a
     *  std::map so cluster-kill iteration is in dispatch order. */
    std::map<uint64_t, JobRecord> inflight;
    std::map<uint64_t, ProbeRecord> probes;
    uint64_t nextToken = 1;

    // One run queue and one dispatch path for both policies
    // (DESIGN.md §14).  fifo: a shard per workload class, ranked by
    // fifoRank.  cake: a shard per (cluster, group), ranked by the
    // deficit ledger, plus kicks, slicing and stealing.
    bool cakeOn = false;
    size_t groupsPer = 0; // groups per cluster (identical machines)
    std::unique_ptr<DeficitLedger> ledger; // cake only
    std::unique_ptr<CakeQueue> queue;
    JobCache jobCache;

    // Unified ExecPlan dispatch: every tenant's jobs execute a
    // compiled plan at the tenant's `opt=` level.  Plans compile once
    // per (workload, level, group shape) and every job on a group of
    // that shape runs them.
    std::vector<OptLevel> tenantOpt;
    std::map<std::tuple<size_t, uint8_t, size_t, size_t>,
             std::shared_ptr<const ExecPlan>>
        planTable;
    /** ProgramCache snapshot at construction: go() reports this run's
     *  deltas (the cache is process-wide and outlives the run). */
    ProgramCache::Stats progBase;
    /** Ticks actually executed, weighted like the ledger's charges:
     *  chargedTicks == refundedTicks + executedTicks, mod 2^64. */
    uint64_t executedTicks = 0;
    /** Lower bound on the earliest queued arrival: the starvation
     *  sweep runs only once `now` passes bound + kick. */
    Tick minArrivalBound = ~Tick{0};

    ServeStats stats;
    Tick lastActivity = 0;
    Tick lastDepthTick = 0;
    double depthAcc = 0.0;

    Engine(const PrototypeSpec& spec_, const ServeSpec& serve_,
           const FaultPlan& faults_, const RetryPolicy& retry_,
           const HealthPolicy& health_)
        : spec(spec_), serve(serve_), faults(faults_), retry(retry_),
          runner(spec_), wlNames(serve_.workloadTable()),
          gen(serve_, wlNames),
          health(serve_.clusters ? serve_.clusters : 1, health_),
          cardsPer(spec_.cluster.totalCards())
    {
        models.reserve(wlNames.size());
        for (const auto& n : wlNames)
            models.push_back(workloadByName(n));
        size_t n = serve.clusters ? serve.clusters : 1;
        clusters.reserve(n);
        for (size_t c = 0; c < n; ++c)
            clusters.emplace_back(c, spec, serve, wlNames,
                                  clusterLocalPlan(faults, c, cardsPer));
        servedPerTenant.assign(serve.tenants.size(), 0);
        stats.tenants.resize(serve.tenants.size());
        for (size_t i = 0; i < serve.tenants.size(); ++i)
            stats.tenants[i].name = serve.tenants[i].name;
        tenantOpt.reserve(serve.tenants.size());
        for (const auto& t : serve.tenants)
            tenantOpt.push_back(t.opt);
        progBase = ProgramCache::global().stats();
        cakeOn = serve.sched == SchedPolicy::Cake;
        stats.sched = schedPolicyName(serve.sched);
        groupsPer = clusters.front().fleet.groups().size();
        if (cakeOn)
            ledger = std::make_unique<DeficitLedger>(serve);
        queue = std::make_unique<CakeQueue>(
            cakeOn ? clusters.size() * groupsPer : wlNames.size(),
            serve.queueCapacity);
    }

    TenantStats& tenant(const Request& r) { return stats.tenants[r.tenant]; }

    /** The shared ExecPlan `wl` executes at `lv` on a group shaped
     *  like `g`.  Shape-keyed: every group with the same sub-machine
     *  topology shares one plan (plan content only depends on the
     *  shape, never on which cards compose the group). */
    const ExecPlan&
    planOf(size_t wl, OptLevel lv, const CardGroup& g)
    {
        ClusterConfig shape = groupSubSpec(spec, g).cluster;
        auto key = std::make_tuple(wl, static_cast<uint8_t>(lv),
                                   shape.servers, shape.cardsPerServer);
        auto it = planTable.find(key);
        if (it == planTable.end())
            it = planTable
                     .emplace(key,
                              runner.planForJob(models[wl], g, lv))
                     .first;
        return *it->second;
    }

    /** Fold queue depth into the time-weighted integral; call before
     *  any mutation of the queue at the current tick. */
    void
    noteDepth()
    {
        Tick now = eq.now();
        depthAcc += static_cast<double>(queue->depth()) *
                    static_cast<double>(now - lastDepthTick);
        lastDepthTick = now;
    }

    /** Cake shard id of a (cluster, cluster-local group) pair. */
    size_t sid(size_t cluster, size_t group) const
    {
        return cluster * groupsPer + group;
    }

    /** Routable cluster: can hold queued work / accept admissions
     *  (quarantined clusters count — probes may heal them). */
    bool
    clusterAlive(const ClusterRt& cl) const
    {
        return !cl.killed && !health.dead(cl.id);
    }

    /**
     * Routing of admitted work, kNoShard when nothing can serve it.
     * fifo: the class shard while a native group serves the class
     * anywhere.  cake: the shallowest shard among the live groups that
     * natively serve `r`'s class, falling back to any live group when
     * the class has no native group left (cross-class serving: runJob
     * is model-parameterized, so cake loses a route only when the
     * whole federation has no live group).
     */
    size_t
    pickShard(const Request& r) const
    {
        if (!cakeOn)
            return servableAnywhere(r.workload) ? r.workload : kNoShard;
        size_t best = kNoShard;
        size_t bestDepth = 0;
        for (int pass = 0; pass < 2; ++pass) {
            for (const auto& cl : clusters) {
                if (!clusterAlive(cl))
                    continue;
                for (const auto& g : cl.fleet.groups()) {
                    if (!g.live())
                        continue;
                    if (pass == 0 && g.workload != r.workload)
                        continue;
                    size_t s = sid(cl.id, g.id);
                    size_t d = queue->shardDepth(s);
                    if (best == kNoShard || d < bestDepth) {
                        best = s;
                        bestDepth = d;
                    }
                }
            }
            if (best != kNoShard)
                break; // native pass found a home
        }
        return best;
    }

    /** Queue `r` on shard `s` (a pickShard answer).  No capacity
     *  gate: arrivals check full() first, while preempt remainders and
     *  failovers are already admitted and re-enter unconditionally. */
    void
    enqueue(const Request& r, size_t s)
    {
        noteDepth();
        queue->push(s, r);
        minArrivalBound = std::min(minArrivalBound, r.arrival);
        stats.maxQueueDepth =
            std::max(stats.maxQueueDepth, queue->depth());
    }

    /** A shard keeps its route while its class has a native group on
     *  a routable cluster (fifo), or while its own group is live on
     *  one (cake). */
    bool
    shardLive(size_t s) const
    {
        if (!cakeOn)
            return servableAnywhere(s);
        const ClusterRt& cl = clusters[s / groupsPer];
        return clusterAlive(cl) && cl.fleet.groups()[s % groupsPer].live();
    }

    /** Re-route queued work stranded on a shard that lost its route
     *  (a dissolved group, a dead or killed cluster); work that no
     *  shard can take sheds.  Under fifo every request of a dead class
     *  shard sheds; under cake only when the whole federation has no
     *  live group left. */
    void
    rerouteDeadShards()
    {
        for (size_t s = 0; s < queue->shards(); ++s) {
            if (!queue->shardDepth(s) || shardLive(s))
                continue;
            noteDepth();
            for (const auto& r : queue->drainShard(s)) {
                size_t to = pickShard(r);
                if (to == kNoShard)
                    shedAdmitted(r);
                else
                    queue->push(to, r);
            }
        }
    }

    /** Starvation sweep: mark queued requests older than the kick cap
     *  so they outrank every tier and deficit at the next dispatch.
     *  Gated on a lower arrival bound, so runs where work is served
     *  within its budget never pay for the scan. */
    void
    markKicks()
    {
        Tick now = eq.now();
        Tick kick = serve.kickTicks();
        if (!queue->depth() || minArrivalBound > now ||
            now - minArrivalBound < kick)
            return;
        minArrivalBound =
            queue->kickStarved(now, kick, [this](const Request& r) {
                ++stats.kicks;
                ++tenant(r).kicks;
            });
    }

    /** Any cluster that could (now or after healing) serve `wl`:
     *  quarantined clusters count — their queued work waits for the
     *  probe path — but dead/killed ones don't. */
    bool
    servableAnywhere(size_t wl) const
    {
        for (const auto& cl : clusters)
            if (!cl.killed && !health.dead(cl.id) &&
                cl.fleet.servable(wl))
                return true;
        return false;
    }

    void
    shedNew(const Request& r, RejectReason why)
    {
        ++stats.shed;
        ++tenant(r).shed;
        if (why == RejectReason::QueueFull)
            ++stats.shedQueueFull;
        else
            ++stats.shedNoCapacity;
    }

    /** Shed a request that was already admitted (capacity-loss flush,
     *  terminal job failure, exhausted failover budget, stall flush). */
    void
    shedAdmitted(const Request& r, bool respawn = true)
    {
        ++stats.shed;
        ++stats.shedNoCapacity;
        ++stats.shedAfterAdmit;
        ++tenant(r).shed;
        if (respawn)
            respawnClosed(r);
    }

    /** Closed-loop clients react to any terminal outcome of their
     *  request (completed or shed) by thinking and trying again. */
    void
    respawnClosed(const Request& r)
    {
        if (auto nr = gen.closedArrival(r.tenant, eq.now()))
            scheduleArrival(*nr);
    }

    void
    scheduleArrival(const Request& r)
    {
        eq.schedule(r.arrival, [this, r] { onArrival(r); });
    }

    /** Kill a card (cluster-local index): record it, repair that
     *  cluster's partition, and re-route (or shed) the work of a shard
     *  the repair left without a route. */
    void
    applyDeath(ClusterRt& cl, size_t local)
    {
        if (cl.cardDead[local])
            return;
        cl.cardDead[local] = true;
        stats.failedCards.push_back(cl.id * cardsPer + local);
        if (!cl.fleet.groupOf(local))
            return;
        auto action = cl.fleet.onCardDeath(local);
        if (action == FleetPartition::DeathAction::Dissolved ||
            action == FleetPartition::DeathAction::Donated)
            ++stats.repartitions;
        rerouteDeadShards();
    }

    /** Apply kills dated at or before `now` on `g`'s cards that the
     *  in-flight job did not consume (e.g. dated exactly at its end,
     *  or falling in the post-step synchronization window). */
    void
    applyPendingKills(ClusterRt& cl, ServeGroup& g, Tick now)
    {
        if (!g.live())
            return;
        std::vector<size_t> snapshot = g.cards.cards;
        for (size_t c : snapshot) {
            auto it = cl.faults.cardFailAt.find(c);
            if (it != cl.faults.cardFailAt.end() && it->second <= now)
                applyDeath(cl, c);
        }
    }

    void
    onArrival(const Request& r)
    {
        Tick now = eq.now();
        lastActivity = std::max(lastActivity, now);
        ++stats.offered;
        ++tenant(r).offered;
        size_t s = pickShard(r);
        if (s == kNoShard) {
            shedNew(r, RejectReason::NoCapacity);
            respawnClosed(r);
            return;
        }
        if (queue->full()) {
            shedNew(r, RejectReason::QueueFull);
            respawnClosed(r);
            return;
        }
        enqueue(r, s);
        ++stats.admitted;
        ++tenant(r).admitted;
        dispatchIdle();
    }

    /** Health-gated routing: healthy clusters pull first, degraded
     *  ones take what's left, quarantined/dead receive nothing. */
    void
    dispatchIdle()
    {
        if (cakeOn)
            markKicks();
        for (bool progress = true; progress;) {
            progress = false;
            for (ClusterHealth rank :
                 {ClusterHealth::Healthy, ClusterHealth::Degraded}) {
                for (auto& cl : clusters) {
                    if (health.state(cl.id) != rank)
                        continue;
                    for (auto& g : cl.fleet.groups()) {
                        if (!g.live() || g.busy)
                            continue;
                        noteDepth();
                        auto r = nextFor(cl, g);
                        if (!r)
                            continue;
                        startJob(cl, g, *r);
                        progress = true;
                    }
                }
            }
        }
    }

    /** Pop the next request for idle group `g`: the best-ranked one
     *  of its home shard (its class under fifo, its own under cake);
     *  a cake group whose shard is empty then steals from the deepest
     *  shard anywhere (capacity follows demand, across classes and
     *  clusters). */
    std::optional<Request>
    nextFor(const ClusterRt& cl, const ServeGroup& g)
    {
        size_t s = cakeOn ? sid(cl.id, g.id) : g.workload;
        if (!cakeOn)
            return queue->popBest(s, [this](const Request& r) {
                return fifoRank(r, servedPerTenant);
            });
        auto rank = [this](const Request& r) {
            return rankOf(r, *ledger);
        };
        if (auto r = queue->popBest(s, rank))
            return r;
        size_t victim = s;
        auto r = queue->steal(s, rank, &victim);
        if (r) {
            ++stats.steals;
            ++tenant(*r).steals;
            if (victim / groupsPer != cl.id)
                ++stats.stealsCross;
        }
        return r;
    }

    /**
     * Dispatch one request on one group: the job runs the REQUEST's
     * model on the group's cards (cake may serve it cross-class),
     * replays from the JobCache on fault-free clusters, and under cake
     * is deficit-charged and sliceable at step boundaries (DESIGN.md
     * §14).
     */
    void
    startJob(ClusterRt& cl, ServeGroup& g, Request r)
    {
        Tick now = eq.now();
        // Only a cake slice remainder resumes with executed > 0; every
        // other dispatch restarts the queue-wait clock.
        if (r.executed == 0) {
            r.firstDispatch = now;
            stats.maxWaitTicks =
                std::max(stats.maxWaitTicks, now - r.arrival);
        } else {
            ++stats.preemptResumes;
        }
        r.dispatched = now;
        // Deficit charge: spillover traffic counts double in the
        // least-served fairness count (and the cake ledger), so a
        // tenant riding failover capacity loses dequeue ties to
        // native tenants.
        uint64_t weight = r.spilled ? 2 : 1;
        servedPerTenant[r.tenant] += weight;
        if (r.spilled)
            ++stats.spilled;
        g.busy = true;
        const ExecPlan& plan =
            planOf(r.workload, tenantOpt[r.tenant], g.cards);
        size_t total = plan.size();
        size_t first = std::min(r.firstStep, total);

        uint64_t id = nextToken++;
        JobRecord& jr = inflight[id];
        jr.req = r;
        jr.cluster = cl.id;
        jr.group = g.id;
        jr.start = now;
        jr.units = total;
        jr.weight = weight;

        // Fault-free clusters replay memoized windows (runJob is
        // start-invariant there, see serve/jobcache.hh); any cluster
        // with local fault injection always executes for real, so
        // absolute-tick faults land where they should.
        const bool faultFree = cl.faults.empty();
        std::vector<Tick> rel; // window-relative unit ends
        const CachedJob* hit =
            faultFree ? jobCache.lookup(plan, g.cards.cards, first,
                                        total - first)
                      : nullptr;
        if (hit) {
            jr.out.ok = hit->ok;
            jr.out.span = hit->span;
            rel = hit->stepEnds;
        } else {
            InferenceResult res =
                runner.runJob(plan, g.cards, now, cl.faults, retry,
                              first, total - first);
            jr.out.ok = res.ok();
            jr.out.span = res.total.makespan;
            jr.out.failedCards = res.failedCards;
            jr.out.redispatches = res.redispatches;
            jr.out.recoveryPenalty = res.recoveryPenalty;
            jr.out.timedOut = res.total.timedOutTransfers;
            rel = res.stepEnds;
            if (faultFree)
                jobCache.insert(plan, g.cards.cards, first,
                                total - first, res);
        }
        jr.out.stepEnds.reserve(rel.size());
        for (Tick t : rel)
            jr.out.stepEnds.push_back(now + t);

        if (cakeOn) {
            ledger->charge(r.tenant, jr.out.span, weight);
            // Step-boundary preemption arms only on fault-free
            // clusters: slicing discards the tail of the dispatched
            // window, which would silently discard tail-resident
            // fault effects.
            if (faultFree)
                armSlice(id, now);
        }
        eq.schedule(now + jr.out.span, [this, id] { onComplete(id); });
    }

    /** Arm the next slice check of job `id`: the first step boundary
     *  at least one wait budget past `from` that still leaves a step
     *  after it.  No-op when no such boundary exists (short jobs run
     *  whole). */
    void
    armSlice(uint64_t id, Tick from)
    {
        JobRecord& jr = inflight[id];
        // Per-tier quantum: hog-prone low tiers can be sliced finer
        // than latency-tier jobs (spec quanta; legacy = tier-0 wait
        // budget for everyone).  The AQM-demoted tier is used, so a
        // demoted hog inherits the deeper tier's (usually shorter)
        // slice.
        Tick quantum =
            serve.quantumTicks(ledger->effectiveTier(jr.req.tenant));
        const auto& ends = jr.out.stepEnds;
        for (size_t k = 0; k + 1 < ends.size(); ++k) {
            if (ends[k] < from + quantum)
                continue;
            jr.sliceEnd = ends[k];
            jr.sliceSteps = k + 1;
            eq.schedule(ends[k], [this, id] { onSliceCheck(id); });
            return;
        }
        jr.sliceEnd = 0;
    }

    /** Slice checkpoint: with work queued, preempt here — the group
     *  frees, the remainder requeues from this step boundary with its
     *  unrun span refunded; with nothing queued, re-arm one budget
     *  further out and let the job run. */
    void
    onSliceCheck(uint64_t id)
    {
        auto it = inflight.find(id);
        if (it == inflight.end() || it->second.sliceEnd != eq.now())
            return; // completed, aborted, or stale
        if (queue->depth() == 0) {
            armSlice(id, eq.now());
            return;
        }
        JobRecord jr = std::move(it->second);
        inflight.erase(it);
        Tick now = eq.now();
        lastActivity = std::max(lastActivity, now);
        ClusterRt& cl = clusters[jr.cluster];
        ServeGroup& g = cl.fleet.groups()[jr.group];
        g.busy = false;
        Tick ran = now - jr.start;
        g.busyTicks += ran;
        executedTicks += ran * jr.weight;
        ledger->refund(jr.req.tenant, jr.out.span - ran, jr.weight);
        ++stats.preemptions;
        ++tenant(jr.req).preemptions;

        Request r = jr.req;
        r.executed += ran;
        r.firstStep = std::min(r.firstStep + jr.sliceSteps, jr.units);
        // Always routable: the freed group itself is live on a
        // fault-free, alive cluster (only those arm slices).
        enqueue(r, pickShard(r));
        if (cl.probePending) {
            cl.probePending = false;
            launchProbe(cl.id);
        }
        dispatchIdle();
    }

    /**
     * Re-queue already-admitted work that lost its job (cluster kill
     * or terminal failure), resuming from its checkpoint: `done` units
     * completed since `req.firstStep` are conserved, capped at the
     * `total` units of the plan the job ran.  Sheds instead when the
     * failover budget is spent or no route remains.
     */
    void
    failoverOrShed(const Request& req, size_t done, size_t total)
    {
        Request r = req;
        r.firstStep = std::min(r.firstStep + done, total);
        size_t s = pickShard(r);
        if (r.failovers >= kFailoverBudget || s == kNoShard) {
            shedAdmitted(r);
            return;
        }
        ++r.failovers;
        r.spilled = true;
        ++stats.failovers;
        stats.recoveredSteps += done;
        if (r.firstStep < total)
            ++stats.replayedSteps; // the interrupted step re-runs
        enqueue(r, s);
    }

    void
    onComplete(uint64_t id)
    {
        auto it = inflight.find(id);
        if (it == inflight.end())
            return; // aborted by a cluster kill; superseded
        JobRecord jr = std::move(it->second);
        inflight.erase(it);
        Tick now = eq.now();
        lastActivity = std::max(lastActivity, now);
        ClusterRt& cl = clusters[jr.cluster];
        ServeGroup& g = cl.fleet.groups()[jr.group];
        g.busy = false;
        g.busyTicks += jr.out.span;
        stats.redispatches += jr.out.redispatches;
        stats.recoveryPenalty += jr.out.recoveryPenalty;
        for (size_t c : jr.out.failedCards)
            applyDeath(cl, c);
        applyPendingKills(cl, g, now);
        bool strained = jr.out.redispatches > 0 || jr.out.timedOut > 0 ||
                        !jr.out.failedCards.empty();
        if (health.recordOutcome(cl.id, jr.out.ok, strained, now))
            scheduleBreakerProbe(cl.id);
        executedTicks += jr.out.span * jr.weight;
        if (jr.out.ok) {
            ++g.completed;
            ++cl.completed;
            ++stats.completed;
            ++tenant(jr.req).completed;
            stats.latency.add(now - jr.req.arrival);
            // Under preemption `dispatched` is per-slice: queue wait
            // runs to firstDispatch, service is the sum of every slice
            // actually executed.
            stats.queueWait.add(jr.req.firstDispatch - jr.req.arrival);
            stats.service.add(jr.req.executed + jr.out.span);
            respawnClosed(jr.req);
        } else {
            // Terminal job failure: conserve the steps this attempt
            // finished and fail the request over to another route.
            failoverOrShed(jr.req, jr.out.stepEnds.size(), jr.units);
        }
        if (cl.probePending) {
            cl.probePending = false;
            launchProbe(cl.id);
        }
        dispatchIdle();
    }

    /** Card-granularity kill event (federation-global index). */
    void
    onKillCard(size_t card)
    {
        ClusterRt& cl = clusters[card / cardsPer];
        size_t local = card % cardsPer;
        if (cl.killed || cl.cardDead[local])
            return;
        ServeGroup* g = cl.fleet.groupOf(local);
        if (g && g->busy)
            return; // the in-flight job's fault plan owns this kill;
                    // reconciled in onComplete via applyPendingKills
        applyDeath(cl, local);
        dispatchIdle();
    }

    /** cluster_kill: the whole cluster dies.  In-flight jobs abort and
     *  resume from their last completed step boundary on survivors. */
    void
    onClusterKill(size_t c)
    {
        ClusterRt& cl = clusters[c];
        if (cl.killed)
            return;
        Tick now = eq.now();
        lastActivity = std::max(lastActivity, now);
        cl.killed = true;
        ++stats.clusterKills;
        health.onClusterKill(c, now);
        for (auto& g : cl.fleet.groups()) {
            g.retired = true;
            g.busy = false;
        }
        cl.cardDead.assign(cl.cardDead.size(), true);
        cl.probePending = false;

        std::vector<uint64_t> doomedJobs, doomedProbes;
        for (const auto& [id, jr] : inflight)
            if (jr.cluster == c)
                doomedJobs.push_back(id);
        for (const auto& [id, pr] : probes)
            if (pr.cluster == c)
                doomedProbes.push_back(id);
        for (uint64_t id : doomedProbes)
            probes.erase(id);
        for (uint64_t id : doomedJobs) {
            JobRecord jr = std::move(inflight[id]);
            inflight.erase(id);
            ++cl.lostJobs;
            // Checkpoint: step boundaries at or before the kill are
            // conserved; the partially executed step (if any) is the
            // one replayed step this job pays.
            size_t k = 0;
            while (k < jr.out.stepEnds.size() &&
                   jr.out.stepEnds[k] <= now)
                ++k;
            Tick lastEnd = k ? jr.out.stepEnds[k - 1] : jr.start;
            stats.recoveryPenalty += now - lastEnd;
            cl.fleet.groups()[jr.group].busyTicks += now - jr.start;
            if (cakeOn) {
                // Settle the dispatch's charge: the ticks it ran are
                // executed, the unrun tail refunds (the failover's
                // re-dispatch recharges the remainder).
                Tick ran = now - jr.start;
                executedTicks += ran * jr.weight;
                ledger->refund(jr.req.tenant, jr.out.span - ran,
                               jr.weight);
                jr.req.executed += ran;
            }
            failoverOrShed(jr.req, k, jr.units);
        }
        rerouteDeadShards();
        dispatchIdle();
    }

    void
    onPartitionStart(size_t c)
    {
        ClusterRt& cl = clusters[c];
        if (cl.killed || health.dead(c))
            return;
        ++stats.clusterPartitions;
        health.onPartitionStart(c, eq.now());
        // In-flight jobs keep running (the cluster is cut off, not
        // down); only new routing is gated.
    }

    void
    onPartitionHeal(size_t c)
    {
        if (health.onPartitionHeal(c, eq.now()))
            launchProbe(c); // half-open: canary decides re-admission
    }

    /** Breaker opened on error rate: schedule the half-open probe.
     *  maxProbes == 0 disables probing entirely (sticky quarantine —
     *  operator intervention assumed; the stall watchdog reports any
     *  work this strands). */
    void
    scheduleBreakerProbe(size_t c)
    {
        if (health.policy().maxProbes == 0)
            return;
        eq.schedule(eq.now() + health.policy().probeDelay(),
                    [this, c] { breakerProbe(c); });
    }

    void
    breakerProbe(size_t c)
    {
        if (health.partitioned(c))
            return; // the partition's heal event owns re-admission
        launchProbe(c);
    }

    void
    launchProbe(size_t c)
    {
        ClusterRt& cl = clusters[c];
        if (cl.killed || health.partitioned(c) ||
            health.state(c) != ClusterHealth::Quarantined ||
            health.policy().maxProbes == 0)
            return;
        ServeGroup* pick = nullptr;
        for (auto& g : cl.fleet.groups())
            if (g.live() && !g.busy) {
                pick = &g;
                break;
            }
        if (!pick) {
            // No idle group: stragglers from before the quarantine are
            // still draining; probe when the next one completes.
            cl.probePending = true;
            return;
        }
        Tick now = eq.now();
        ++stats.canaryProbes;
        ++cl.canaries;
        pick->busy = true;
        // Cheap canary: the first unit of the group's own workload,
        // from the shared Safe plan of the group's shape.
        InferenceResult res = runner.runJob(
            planOf(pick->workload, OptLevel::Safe, pick->cards),
            pick->cards, now, cl.faults, retry, 0, 1);
        uint64_t id = nextToken++;
        ProbeRecord& pr = probes[id];
        pr.cluster = c;
        pr.group = pick->id;
        pr.span = res.total.makespan;
        pr.ok = res.ok();
        eq.schedule(now + pr.span, [this, id] { onProbeDone(id); });
    }

    void
    onProbeDone(uint64_t id)
    {
        auto it = probes.find(id);
        if (it == probes.end())
            return; // cluster died while the probe was in flight
        ProbeRecord pr = it->second;
        probes.erase(it);
        Tick now = eq.now();
        lastActivity = std::max(lastActivity, now);
        ClusterRt& cl = clusters[pr.cluster];
        ServeGroup& g = cl.fleet.groups()[pr.group];
        g.busy = false;
        g.busyTicks += pr.span;
        bool again = health.onProbeResult(pr.cluster, pr.ok, now);
        if (pr.ok) {
            dispatchIdle(); // breaker closed: back in the rotation
        } else if (again) {
            eq.schedule(now + health.policy().probeDelay(),
                        [this, c = pr.cluster] { breakerProbe(c); });
        } else {
            // Probe budget exhausted: written off as dead.  Queued
            // work stranded on its shards re-routes or sheds now.
            rerouteDeadShards();
        }
        if (cl.probePending) {
            cl.probePending = false;
            launchProbe(pr.cluster);
        }
    }

    StallReport
    buildStallReport() const
    {
        StallReport rep;
        rep.tick = eq.now();
        rep.queuedRequests = queue->depth();
        for (size_t wl = 0; wl < wlNames.size(); ++wl) {
            size_t d = queue->depthFor(wl);
            if (d)
                rep.depths.push_back({wlNames[wl], d});
        }
        for (const auto& cl : clusters) {
            StallReport::ClusterLine line;
            line.cluster = cl.id;
            line.health = health.state(cl.id);
            for (const auto& g : cl.fleet.groups()) {
                line.liveGroups += g.live();
                line.busyGroups += g.live() && g.busy;
            }
            rep.clusters.push_back(line);
        }
        if (const Request* o =
                cakeOn ? queue->oldest() : queue->firstPushed()) {
            rep.oldestRequestId = o->id;
            rep.oldestTenant = serve.tenants[o->tenant].name;
            rep.oldestAge = rep.tick - o->arrival;
        }
        return rep;
    }

    ServeStats
    go()
    {
        for (const auto& r : gen.initialArrivals())
            scheduleArrival(r);
        for (const auto& [card, tick] : faults.cardFailAt)
            if (card < cardsPer * clusters.size())
                eq.schedule(tick,
                            [this, c = card] { onKillCard(c); });
        for (const auto& [c, tick] : faults.clusterKillAt)
            if (c < clusters.size())
                eq.schedule(tick, [this, c] { onClusterKill(c); });
        for (const auto& [c, p] : faults.clusterPartitionAt) {
            if (c >= clusters.size())
                continue;
            eq.schedule(p.start, [this, c] { onPartitionStart(c); });
            eq.schedule(p.heal, [this, c] { onPartitionHeal(c); });
        }
        eq.run();

        // No-progress watchdog: the event queue drained but admitted
        // requests are still queued — every route is quarantined (with
        // probing disabled) or gone.  Report and shed rather than
        // wedge; no respawn (the run is over).
        if (queue->depth() > 0) {
            StallReport rep = buildStallReport();
            stats.stalled = true;
            stats.stallReport = rep.describe();
            noteDepth();
            for (const auto& r : queue->drainAll())
                shedAdmitted(r, /*respawn=*/false);
        }

        stats.horizon = std::max(serve.durationTicks(), lastActivity);
        if (stats.horizon > lastDepthTick)
            depthAcc += static_cast<double>(queue->depth()) *
                        static_cast<double>(stats.horizon -
                                            lastDepthTick);
        stats.meanQueueDepth =
            stats.horizon
                ? depthAcc / static_cast<double>(stats.horizon)
                : 0.0;
        stats.healthTransitions = health.transitions();
        ProgramCache::Stats pc = ProgramCache::global().stats();
        stats.progCacheHits = pc.hits - progBase.hits;
        stats.progCacheMisses = pc.misses - progBase.misses;
        stats.progCacheEvictions = pc.evictions - progBase.evictions;
        stats.progCacheEntries = pc.entries;
        stats.jobCacheHits = jobCache.hits();
        stats.jobCacheMisses = jobCache.misses();
        if (cakeOn) {
            stats.demotions = ledger->demotions();
            stats.promotions = ledger->promotions();
            stats.chargedTicks = ledger->chargedTicks();
            stats.refundedTicks = ledger->refundedTicks();
            stats.executedTicks = executedTicks;
            for (size_t t = 0; t < stats.tenants.size(); ++t) {
                stats.tenants[t].deficitTicks = ledger->deficit(t);
                stats.tenants[t].demotions = ledger->demotionsOf(t);
            }
        }
        for (const auto& cl : clusters) {
            for (const auto& g : cl.fleet.groups()) {
                GroupStats gs;
                gs.id = g.id;
                gs.cluster = cl.id;
                gs.workload = wlNames[g.workload];
                gs.cards = g.cards.size();
                gs.completed = g.completed;
                gs.busyTicks = g.busyTicks;
                gs.retired = g.retired;
                stats.groups.push_back(gs);
            }
            ClusterStats cs;
            cs.id = cl.id;
            cs.health = clusterHealthName(health.state(cl.id));
            cs.completed = cl.completed;
            cs.failovers = cl.lostJobs;
            cs.canaryProbes = cl.canaries;
            cs.deadCards = static_cast<size_t>(std::count(
                cl.cardDead.begin(), cl.cardDead.end(), true));
            cs.killed = cl.killed;
            stats.clusters.push_back(cs);
        }
        return std::move(stats);
    }
};

} // namespace

Federation::Federation(PrototypeSpec spec, ServeSpec serve,
                       FaultPlan faults, RetryPolicy retry,
                       HealthPolicy health)
    : spec_(std::move(spec)), serve_(std::move(serve)),
      faults_(std::move(faults)), retry_(retry), health_(health)
{
}

ServeStats
Federation::run()
{
    Engine eng(spec_, serve_, faults_, retry_, health_);
    return eng.go();
}

} // namespace hydra

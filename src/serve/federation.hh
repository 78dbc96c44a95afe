/**
 * @file
 * Federated fault domains: several clusters behind one health-gated
 * routing tier, extending the paper's Procedure-2 host scheduler one
 * level up (the ROADMAP's "millions of users" shape).
 *
 * A Federation owns N identical clusters (the machine replicated
 * `ServeSpec::clusters` times) on one shared virtual clock.  Every
 * cluster gets its own fleet partition (same group plan) and cards are
 * numbered federation-globally: cluster c owns [c*P, (c+1)*P).
 *
 * Routing tier: admitted requests wait in one federation-wide run
 * queue (serve/cake.hh); idle groups of *routable* clusters (healthy
 * first, then degraded — see serve/health.hh) pull from it.
 * Quarantined and dead clusters receive nothing, so capacity loss
 * shows up as spillover onto the survivors, and failover traffic is
 * deficit-charged at dispatch (an extra least-served-fairness count
 * against its tenant) so it cannot starve native tenants.
 *
 * Cluster-granularity faults (FaultPlan):
 *  - cluster_kill (`ckill=C@S`): the cluster dies at tick S.  Its
 *    cards are gone, its in-flight jobs abort, and each aborted job is
 *    re-queued to resume *from its last completed unit boundary* on a
 *    survivor via InferenceRunner::runJob(plan, ..., first_unit) — the
 *    checkpointed-recovery path.  The accounting split proves work
 *    conservation: `recoveredSteps` counts boundaries conserved,
 *    `replayedSteps` the at-most-one partially-executed step per
 *    in-flight job that must re-run.
 *  - cluster_partition (`cpart=C@S:W`): the cluster is unreachable for
 *    new work during [S, S+W).  Work already on it keeps running; at
 *    the healing window's end the breaker half-opens and a canary job
 *    probes the cluster back into service.
 *
 * Terminal job failures (exhausted retries, deadlock) also fail over:
 * the request re-queues with its completed steps conserved, bounded by
 * a per-request failover budget, then sheds with a structured reason.
 *
 * No-progress watchdog: when the event queue drains while admitted
 * requests are still queued (every possible route quarantined or dead
 * with probing disabled), the run does not wedge silently — it emits
 * a structured StallReport (queue depths, per-cluster health, oldest
 * pending request) and sheds the stuck work, keeping the accounting
 * identity admitted == completed + shedAfterAdmit exact.
 *
 * Scheduling policy (`sched=fifo|cake`, serve/cake.hh, DESIGN.md
 * §14): both policies run one dispatch path — admission, dispatch,
 * JobCache replay on fault-free clusters, failover and stats — over
 * one sharded run queue; the policy picks the shards and the rank.
 * fifo: a shard per workload class, ranked (priority, least-served
 * tenant, admission order), with no ledger, kicks, preemption or
 * stealing.  cake: a shard per (cluster, group) with work stealing
 * across groups and clusters, ranked by per-tenant deficit
 * accounting, plus step-boundary preemption (fault-free clusters
 * only, unrun tail deficit-refunded) and wait-budget AQM tier
 * demotion with a starvation kick.
 */

#ifndef HYDRA_SERVE_FEDERATION_HH
#define HYDRA_SERVE_FEDERATION_HH

#include "serve/health.hh"
#include "serve/partition.hh"
#include "serve/queue.hh"
#include "serve/stats.hh"
#include "sync/fault.hh"

namespace hydra {

/** Runs one serving experiment over a federation of clusters. */
class Federation
{
  public:
    /**
     * @param spec machine description of ONE cluster (copied); the
     *        federation replicates it `serve.clusters` times
     * @param serve serving experiment (tenants, partition, queue,
     *        cluster count)
     * @param faults federation-global fault plan; card indices are
     *        federation-global, cluster faults name cluster indices,
     *        and all ticks are absolute serve-clock times
     * @param retry DTU retry policy forwarded to every job
     * @param health circuit-breaker thresholds of the routing tier
     */
    Federation(PrototypeSpec spec, ServeSpec serve, FaultPlan faults = {},
               RetryPolicy retry = {}, HealthPolicy health = {});

    /**
     * Run to completion: arrivals stop at the spec horizon, admitted
     * work drains (or is shed with a StallReport when it cannot).
     * Deterministic: same spec + seed + faults give a bit-identical
     * ServeStats (same hash()), independent of HYDRA_THREADS.
     */
    ServeStats run();

    const PrototypeSpec& spec() const { return spec_; }

  private:
    PrototypeSpec spec_;
    ServeSpec serve_;
    FaultPlan faults_;
    RetryPolicy retry_;
    HealthPolicy health_;
};

} // namespace hydra

#endif // HYDRA_SERVE_FEDERATION_HH

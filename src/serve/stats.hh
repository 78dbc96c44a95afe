/**
 * @file
 * Serving metrics: fixed-bucket latency histograms, per-tenant and
 * per-group counters, queue-depth tracking, and a machine-readable
 * JSON export compatible with the --json bench machinery.
 *
 * Percentiles come from a geometric fixed-bucket histogram (no stored
 * samples): bucket 0 is [0, 100us) and each later bucket grows by
 * 2^(1/4) (~19% relative resolution) up to ~23 minutes, overflow
 * clamped into the last bucket.  percentile() returns the upper edge
 * of the bucket containing the requested quantile — deterministic,
 * conservative, and O(1) memory regardless of request count.
 */

#ifndef HYDRA_SERVE_STATS_HH
#define HYDRA_SERVE_STATS_HH

#include <array>
#include <cstdint>
#include <string>
#include <vector>

#include "sim/eventq.hh"

namespace hydra {

/** Fixed-bucket geometric latency histogram. */
class LatencyHistogram
{
  public:
    static constexpr size_t kBuckets = 96;

    void add(Tick t);

    uint64_t count() const { return total_; }

    /** Upper edge of the bucket holding quantile p (p in (0, 1]);
     *  0 when the histogram is empty. */
    Tick percentile(double p) const;

    const std::array<uint64_t, kBuckets>& buckets() const
    {
        return counts_;
    }

    /** Upper edge of bucket `i` in ticks (same table add() bins by). */
    static Tick bucketUpper(size_t i);

  private:
    std::array<uint64_t, kBuckets> counts_{};
    uint64_t total_ = 0;
};

/** Per-tenant serving counters. */
struct TenantStats
{
    std::string name;
    uint64_t offered = 0;
    uint64_t admitted = 0;
    uint64_t completed = 0;
    uint64_t shed = 0;

    // Cake-scheduler counters (all zero under fifo; folded into the
    // stats hash only when the run used a non-fifo policy).
    /** Residual deficit (ticks ahead of fair share) at end of run. */
    Tick deficitTicks = 0;
    /** AQM tier demotions charged to this tenant. */
    uint64_t demotions = 0;
    /** Requests force-promoted by the starvation kick. */
    uint64_t kicks = 0;
    /** Requests of this tenant served via work stealing. */
    uint64_t steals = 0;
    /** Step-boundary preemptions of this tenant's jobs. */
    uint64_t preemptions = 0;
};

/** Per-group usage snapshot at the end of a run. */
struct GroupStats
{
    size_t id = 0;
    /** Owning cluster (0 for single-cluster runs). */
    size_t cluster = 0;
    std::string workload;
    /** Cards still alive at the end of the run. */
    size_t cards = 0;
    uint64_t completed = 0;
    Tick busyTicks = 0;
    bool retired = false;

    double
    utilization(Tick horizon) const
    {
        return horizon ? static_cast<double>(busyTicks) /
                             static_cast<double>(horizon)
                       : 0.0;
    }
};

/** Per-cluster roll-up of a federated run. */
struct ClusterStats
{
    size_t id = 0;
    /** Final health state ("healthy" / "degraded" / ...). */
    std::string health;
    uint64_t completed = 0;
    /** In-flight jobs this cluster lost to a cluster kill. */
    uint64_t failovers = 0;
    uint64_t canaryProbes = 0;
    size_t deadCards = 0;
    bool killed = false;
};

/** Aggregated results of one serving run. */
struct ServeStats
{
    /** End of the run: max(arrival horizon, last completion). */
    Tick horizon = 0;

    /** Scheduling policy name ("fifo" / "cake").  The ledger,
     *  preemption, steal and kick counters below stay zero under fifo;
     *  maxWaitTicks and the job-cache counters are kept for both
     *  policies.  hash() folds this block only for non-fifo runs so
     *  pre-existing fifo hashes remain bit-for-bit stable. */
    std::string sched = "fifo";

    // Cake-scheduler accounting (DESIGN.md §14).
    /** Jobs sliced at a step boundary and requeued. */
    uint64_t preemptions = 0;
    /** Dispatches that resumed a previously preempted request. */
    uint64_t preemptResumes = 0;
    /** Dispatches served by stealing from another group's shard. */
    uint64_t steals = 0;
    /** Portion of `steals` taken from a different cluster. */
    uint64_t stealsCross = 0;
    /** AQM tier demotions / recoveries across all tenants. */
    uint64_t demotions = 0;
    uint64_t promotions = 0;
    /** Starvation kicks (requests queued past the hard cap). */
    uint64_t kicks = 0;
    /** Deficit-ledger conservation counters, mod 2^64:
     *  chargedTicks == refundedTicks + executedTicks for every run. */
    uint64_t chargedTicks = 0;
    uint64_t refundedTicks = 0;
    uint64_t executedTicks = 0;
    /** Longest any completed request waited before first dispatch. */
    Tick maxWaitTicks = 0;
    /** Fault-free job-result cache effectiveness. */
    uint64_t jobCacheHits = 0;
    uint64_t jobCacheMisses = 0;

    /** Process-wide ProgramCache activity attributed to this run
     *  (hit/miss/eviction deltas over the run; entries is the
     *  end-of-run population).  Observability only — deliberately
     *  NEVER folded into hash(): the compiled-program cache is shared
     *  across runs in one process, so its deltas depend on what ran
     *  before, while the serving outcome does not. */
    uint64_t progCacheHits = 0;
    uint64_t progCacheMisses = 0;
    uint64_t progCacheEvictions = 0;
    uint64_t progCacheEntries = 0;

    uint64_t offered = 0;
    uint64_t admitted = 0;
    uint64_t completed = 0;
    uint64_t shed = 0;
    uint64_t shedQueueFull = 0;
    uint64_t shedNoCapacity = 0;
    /** Portion of `shed` that had already been admitted (capacity-loss
     *  flushes, terminal job failures, stall flushes): the accounting
     *  identity is admitted == completed + shedAfterAdmit. */
    uint64_t shedAfterAdmit = 0;

    /** Fault accounting rolled up from degraded jobs and idle kills. */
    std::vector<size_t> failedCards;
    uint64_t repartitions = 0;
    uint64_t redispatches = 0;
    Tick recoveryPenalty = 0;

    /** Federation accounting (all zero for single-cluster runs without
     *  cluster faults). */
    uint64_t clusterKills = 0;
    uint64_t clusterPartitions = 0;
    /** In-flight jobs aborted by a cluster death and re-queued. */
    uint64_t failovers = 0;
    /** Requests dispatched on a different cluster after a failover. */
    uint64_t spilled = 0;
    /** Step boundaries conserved across failovers: steps a resumed job
     *  did NOT have to re-run thanks to checkpointed recovery. */
    uint64_t recoveredSteps = 0;
    /** Steps re-executed because the kill landed mid-step (bounded by
     *  one per failed-over in-flight job). */
    uint64_t replayedSteps = 0;
    /** Health state-machine transitions across all clusters. */
    uint64_t healthTransitions = 0;
    /** Half-open canary probes launched by the circuit breaker. */
    uint64_t canaryProbes = 0;

    /** No-progress watchdog: set when the event queue drained with
     *  admitted requests still queued (all routes quarantined/dead);
     *  the stuck requests are shed and the report captured here. */
    bool stalled = false;
    std::string stallReport;

    size_t maxQueueDepth = 0;
    /** Time-weighted mean queue depth over the horizon. */
    double meanQueueDepth = 0.0;

    /** completion - arrival. */
    LatencyHistogram latency;
    /** dispatch - arrival. */
    LatencyHistogram queueWait;
    /** completion - dispatch. */
    LatencyHistogram service;

    std::vector<TenantStats> tenants;
    std::vector<GroupStats> groups;
    std::vector<ClusterStats> clusters;

    double
    throughputRps() const
    {
        double s = ticksToSeconds(horizon);
        return s > 0 ? static_cast<double>(completed) / s : 0.0;
    }

    /** FNV-1a over every counter and histogram bucket: two runs with
     *  the same seed must produce the same hash (determinism tests). */
    uint64_t hash() const;

    /** One JSON object with throughput, p50/p95/p99, shed reasons,
     *  per-tenant and per-group roll-ups. */
    std::string toJson(const std::string& machine,
                       const std::string& spec_line) const;

    /** Human-readable console report. */
    std::string describe() const;
};

} // namespace hydra

#endif // HYDRA_SERVE_STATS_HH

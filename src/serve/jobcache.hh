/**
 * @file
 * Fault-free job-result cache for the serving engine.
 *
 * With an empty cluster-local FaultPlan, InferenceRunner::runJob is a
 * pure function of (workload, card set, step window): the executor's
 * time origin only shifts event timestamps, so the span and step
 * boundaries are start-invariant (pinned by RunnerJobs.
 * AlignedGroupMatchesWholeMachine).  Million-request serving runs
 * re-execute the same handful of (workload, group) jobs, so the
 * engine caches the outcome and replays it in O(1) — the same spans,
 * bit for bit, as real execution — under either scheduling policy.
 * Any cluster whose local plan injects anything at all (rates,
 * stragglers, kills) bypasses the cache, keeping the guarantee that
 * absolute-tick faults land in real executions.
 *
 * The same start-invariance rule lets the execution driver replay
 * repeated units within one call (DESIGN.md §16, "Start
 * invariance"); this cache is its cross-call user.
 */

#ifndef HYDRA_SERVE_JOBCACHE_HH
#define HYDRA_SERVE_JOBCACHE_HH

#include <map>
#include <tuple>
#include <vector>

#include "sched/execplan.hh"
#include "sched/runner.hh"

namespace hydra {

/** Memoized outcome of one fault-free runJob window. */
struct CachedJob
{
    bool ok = true;
    Tick span = 0;
    /** Unit-boundary offsets from the job's start (runJob semantics). */
    std::vector<Tick> stepEnds;
};

/**
 * Per-run cache of fault-free job windows, keyed exactly — no digest
 * can collide: the ExecPlan object itself, the executed unit window
 * and the card set by content (so shrunken groups never alias their
 * pre-repair selves).  Plans are keyed by identity: the caller keeps
 * every plan alive and unique per (workload, level, group shape) for
 * the cache's lifetime, as the serving engine's plan table does for
 * a run.  Sliced tails and memoized replays work identically for Safe
 * step units and Aggressive multi-layer units.
 */
class JobCache
{
  public:
    /** Cached result for (plan, cards, unit window), or nullptr. */
    const CachedJob*
    lookup(const ExecPlan& plan, const std::vector<size_t>& cards,
           size_t first_unit, size_t num_units) const
    {
        const CachedJob* hit = nullptr;
        auto w = map_.find({&plan, first_unit, num_units});
        if (w != map_.end()) {
            auto it = w->second.find(cards);
            if (it != w->second.end())
                hit = &it->second;
        }
        ++(hit ? hits_ : misses_);
        return hit;
    }

    void
    insert(const ExecPlan& plan, const std::vector<size_t>& cards,
           size_t first_unit, size_t num_units, const InferenceResult& r)
    {
        CachedJob c;
        c.ok = r.ok();
        c.span = r.total.makespan;
        c.stepEnds = r.stepEnds;
        map_[{&plan, first_unit, num_units}].emplace(cards,
                                                    std::move(c));
    }

    uint64_t hits() const { return hits_; }
    uint64_t misses() const { return misses_; }

  private:
    /** (plan, first unit, unit count). */
    using Window = std::tuple<const ExecPlan*, size_t, size_t>;
    using CardMap = std::map<std::vector<size_t>, CachedJob>;

    std::map<Window, CardMap> map_;
    mutable uint64_t hits_ = 0;
    mutable uint64_t misses_ = 0;
};

} // namespace hydra

#endif // HYDRA_SERVE_JOBCACHE_HH

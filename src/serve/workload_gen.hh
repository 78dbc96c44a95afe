/**
 * @file
 * Deterministic request-stream generation for the serving layer.
 *
 * Open-loop tenants draw exponential inter-arrival gaps from hashed
 * splitmix64 streams (platform-independent, order-independent per
 * tenant), trace tenants replay the spec's explicit `at=` entries, and
 * closed-loop client pools issue their first request at t=0 and then
 * one request per completion after the tenant's think time.  The same
 * seed always yields the same request ids at the same ticks.
 */

#ifndef HYDRA_SERVE_WORKLOAD_GEN_HH
#define HYDRA_SERVE_WORKLOAD_GEN_HH

#include <optional>

#include "serve/spec.hh"

namespace hydra {

/** One inference request travelling through the serving pipeline. */
struct Request
{
    uint64_t id = 0;
    /** Index into ServeSpec::tenants. */
    size_t tenant = 0;
    /** Index into the sim's workload table. */
    size_t workload = 0;
    /** Priority tier copied from the tenant (0 = highest). */
    int priority = 1;
    Tick arrival = 0;
    /** Set when the request leaves the queue for a card group. */
    Tick dispatched = 0;

    // Dispatch state, shared by both scheduling policies.
    /** Start of the dispatch that queue wait is measured to: the first
     *  slice of a preempted cake request, otherwise every dispatch
     *  (a failover's re-dispatch restarts the wait clock). */
    Tick firstDispatch = 0;
    /** Virtual service time consumed by completed slices of this
     *  request (cake preemptions and cake aborts accumulate; the final
     *  slice adds its own span at completion).  Always 0 under fifo,
     *  which never slices. */
    Tick executed = 0;
    /** Cake starvation kick: set when the request sat queued past the
     *  hard cap — it now ranks ahead of every tier and deficit. */
    bool kicked = false;
    /** Order of the request's latest push onto the run queue (set by
     *  CakeQueue::push); fifo's stall report names the earliest. */
    uint64_t pushSeq = 0;

    // Federated failover state (all defaults for fresh arrivals).
    /** Checkpointed resume point: first workload step still to run.
     *  Non-zero after a cluster kill aborted the job mid-run and its
     *  completed step boundaries were conserved. */
    size_t firstStep = 0;
    /** Times this request was re-queued off a dying cluster. */
    uint32_t failovers = 0;
    /** True once the request was re-queued onto the federation after
     *  losing its cluster; dispatch charges a fairness deficit so
     *  spillover traffic cannot starve native tenants. */
    bool spilled = false;
};

/** Generates the deterministic request stream of one ServeSpec. */
class WorkloadGen
{
  public:
    /**
     * @param spec the serving experiment (tenants, seed, horizon)
     * @param workload_table distinct workload names; tenant workloads
     *        are resolved to indices into it (fatal if absent)
     */
    WorkloadGen(const ServeSpec& spec,
                const std::vector<std::string>& workload_table);

    /**
     * Every open-loop and trace arrival in [0, duration), plus each
     * closed-loop client's first request at t=0; sorted by (tick, id)
     * with ids assigned in that order.
     */
    std::vector<Request> initialArrivals();

    /**
     * Next request of a closed-loop tenant after one of its in-flight
     * requests completed at `completion`.  Returns nullopt when the
     * next arrival would fall past the horizon (the client pool winds
     * down), for non-closed tenants, or past the request cap.
     */
    std::optional<Request> closedArrival(size_t tenant_idx,
                                         Tick completion);

    /** Requests handed out so far (open + trace + closed). */
    uint64_t generated() const { return nextId_ - 1; }

  private:
    const ServeSpec& spec_;
    std::vector<size_t> tenantWorkload_; // tenant idx -> table idx
    uint64_t nextId_ = 1;
};

} // namespace hydra

#endif // HYDRA_SERVE_WORKLOAD_GEN_HH

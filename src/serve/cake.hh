/**
 * @file
 * Run-queue primitives of the serving layer (DESIGN.md §14): sharded
 * run queues with rank-ordered dequeue and work stealing, the two
 * rank policies over them, and the CAKE-style per-tenant deficit
 * ledger built on start-time fair queueing.
 *
 * Both `sched=` policies share one CakeQueue; the policy only picks
 * the shard layout and the rank:
 *  - fifo: one shard per workload class, ranked by fifoRank —
 *    (priority tier, least-served tenant, admission order);
 *  - cake: one shard per (cluster, group), ranked by rankOf over the
 *    deficit ledger below.
 *
 * Deficit accounting: every tenant carries a virtual finish tag F[t];
 * dispatching one of its requests charges F[t] = max(V, F[t]) +
 * span * weight and advances the global virtual clock V to the
 * dispatch's start tag max(V, F[t]).  A tenant consuming more than
 * its fair share runs ahead of V (a positive deficit F[t] - V) and
 * loses dequeue races to sparse flows, whose tags are clipped up to V
 * so idle time never banks unbounded credit.  Tags are 128-bit so
 * multi-million-request runs cannot wrap the virtual clock.
 *
 * AQM tier demotion: a tenant whose deficit exceeds the demotion
 * threshold is demoted one priority tier (hog isolation); it promotes
 * back once the deficit drains below a quarter of the threshold
 * (hysteresis, so borderline tenants don't flap).
 *
 * Cake ranking: queued requests order by (starved-kick flag,
 * effective tier, start tag, arrival, id) — strict, total, and
 * deterministic.
 *
 * Cake sharding: admission routes a request to the shallowest shard
 * among the groups that natively serve its workload class; an idle
 * group whose shard is empty steals the best-ranked request from the
 * deepest shard anywhere in the federation (capacity follows demand,
 * including across workload classes and clusters).
 */

#ifndef HYDRA_SERVE_CAKE_HH
#define HYDRA_SERVE_CAKE_HH

#include <algorithm>
#include <optional>
#include <vector>

#include "serve/spec.hh"
#include "serve/workload_gen.hh"

namespace hydra {

/** 128-bit virtual time: immune to wraparound at 1M-request scale. */
using VirtualTag = unsigned __int128;

/** Per-tenant deficit accounting (start-time fair queueing + AQM). */
class DeficitLedger
{
  public:
    explicit DeficitLedger(const ServeSpec& spec);

    /** Global virtual clock (start tag of the latest dispatch). */
    VirtualTag now() const { return v_; }

    /** Start tag a request of tenant `t` would dispatch with. */
    VirtualTag
    startTag(size_t t) const
    {
        return finish_[t] > v_ ? finish_[t] : v_;
    }

    /** Runtime deficit: how far ahead of its fair share tenant `t`
     *  has run (0 for sparse flows). */
    Tick
    deficit(size_t t) const
    {
        VirtualTag d = finish_[t] > v_ ? finish_[t] - v_ : 0;
        return d > static_cast<VirtualTag>(~Tick{0})
                   ? ~Tick{0}
                   : static_cast<Tick>(d);
    }

    /** Spec tier plus the AQM demotion (hogs yield one tier). */
    int
    effectiveTier(size_t t) const
    {
        return baseTier_[t] + (demoted_[t] ? 1 : 0);
    }

    bool demoted(size_t t) const { return demoted_[t]; }

    /**
     * Charge tenant `t` for a dispatched job: `span` virtual service
     * ticks at `weight` (2 for deficit-charged spillover traffic).
     * Advances the global virtual clock to the dispatch's start tag.
     */
    void charge(size_t t, Tick span, uint64_t weight);

    /**
     * Refund the unrun tail of a sliced (preempted) or aborted job:
     * the remainder re-charges at its next dispatch, so without the
     * refund a preempted tenant would pay twice for the same steps.
     */
    void refund(size_t t, Tick unrun, uint64_t weight);

    /** Total weighted ticks charged at dispatch (mod 2^64). */
    uint64_t chargedTicks() const { return charged_; }
    /** Total weighted ticks refunded by preemption/abort (mod 2^64). */
    uint64_t refundedTicks() const { return refunded_; }
    uint64_t demotions() const { return demotions_; }
    uint64_t promotions() const { return promotions_; }
    uint64_t demotionsOf(size_t t) const { return tenantDemotions_[t]; }

  private:
    void updateTier(size_t t);

    VirtualTag v_ = 0;
    std::vector<VirtualTag> finish_;
    std::vector<int> baseTier_;
    std::vector<uint8_t> demoted_;
    std::vector<uint64_t> tenantDemotions_;
    Tick demoteThreshold_ = 0;
    uint64_t charged_ = 0;
    uint64_t refunded_ = 0;
    uint64_t demotions_ = 0;
    uint64_t promotions_ = 0;
};

/** Strict total dispatch order of queued requests. */
struct RankKey
{
    bool kicked = false;
    int tier = 0;
    VirtualTag tag = 0;
    Tick arrival = 0;
    uint64_t id = 0;

    bool
    operator<(const RankKey& o) const
    {
        if (kicked != o.kicked)
            return kicked; // starvation kicks outrank everything
        if (tier != o.tier)
            return tier < o.tier;
        if (tag != o.tag)
            return tag < o.tag;
        if (arrival != o.arrival)
            return arrival < o.arrival;
        return id < o.id;
    }
};

/** Cake rank of a queued request under the current ledger state. */
inline RankKey
rankOf(const Request& r, const DeficitLedger& led)
{
    RankKey k;
    k.kicked = r.kicked;
    k.tier = led.effectiveTier(r.tenant);
    k.tag = led.startTag(r.tenant);
    k.arrival = r.arrival;
    k.id = r.id;
    return k;
}

/**
 * Fifo rank: lowest priority value, then the tenant with the fewest
 * dispatches so far (`served`), then admission order — arrival and id
 * stay zero so ties fall to queue order, which popBest keeps.
 */
inline RankKey
fifoRank(const Request& r, const std::vector<uint64_t>& served)
{
    RankKey k;
    k.tier = r.priority;
    k.tag = served[r.tenant];
    return k;
}

/** Run-queue shards with rank-ordered pop and stealing. */
class CakeQueue
{
  public:
    CakeQueue(size_t shards, size_t capacity);

    size_t shards() const { return shards_.size(); }
    size_t depth() const { return depth_; }
    bool full() const { return depth_ >= capacity_; }
    size_t shardDepth(size_t s) const { return shards_[s].size(); }

    /** Enqueue on shard `s` (callers gate new admissions on full();
     *  re-queued work re-enters unconditionally). */
    void push(size_t s, const Request& r);

    /**
     * Pop the best request of shard `s`: `rank` maps a queued Request
     * to its RankKey, and of equal keys the one queued first wins.
     */
    template <class Rank>
    std::optional<Request>
    popBest(size_t s, Rank&& rank)
    {
        const auto& q = shards_[s];
        if (q.empty())
            return std::nullopt;
        size_t best = 0;
        RankKey bestKey = rank(q[0]);
        for (size_t i = 1; i < q.size(); ++i) {
            RankKey k = rank(q[i]);
            if (k < bestKey) {
                best = i;
                bestKey = k;
            }
        }
        return take(s, best);
    }

    /**
     * Work stealing: pop the best-ranked request of the deepest
     * non-empty shard other than `exclude` (tie: lowest shard id),
     * reporting the victim shard through `victim_out`.  Returns
     * nullopt when every candidate shard is empty.
     */
    template <class Rank>
    std::optional<Request>
    steal(size_t exclude, Rank&& rank, size_t* victim_out)
    {
        size_t victim = deepestExcept(exclude);
        if (victim == shards_.size())
            return std::nullopt;
        if (victim_out)
            *victim_out = victim;
        return popBest(victim, rank);
    }

    /**
     * Starvation kick: set the kicked flag on every queued request
     * older than `kick` ticks, invoking `on_kick` once per newly
     * kicked request, shard by shard in queue order.  Only shards
     * whose unkicked-arrival bound is due are scanned: a shard whose
     * earliest unkicked arrival is under `kick` ticks old holds
     * nothing to kick, so skipping it changes no kick and no order.
     * Returns the earliest arrival among the requests still unkicked
     * (a lower bound; ~Tick{0} when every queued request is kicked).
     */
    template <class OnKick>
    Tick
    kickStarved(Tick now, Tick kick, OnKick&& on_kick)
    {
        Tick earliest = ~Tick{0};
        for (size_t s = 0; s < shards_.size(); ++s) {
            Tick& bound = unkickedBound_[s];
            if (bound <= now && now - bound >= kick) {
                bound = ~Tick{0};
                for (auto& r : shards_[s]) {
                    if (r.kicked)
                        continue;
                    if (now >= r.arrival && now - r.arrival >= kick) {
                        r.kicked = true;
                        on_kick(r);
                    } else {
                        bound = std::min(bound, r.arrival);
                    }
                }
            }
            earliest = std::min(earliest, bound);
        }
        return earliest;
    }

    /** Remove and return everything queued (stall flush). */
    std::vector<Request> drainAll();

    /** Remove and return shard `s`'s queue (dead-shard re-route). */
    std::vector<Request> drainShard(size_t s);

    /** Earliest-arrival queued request (cake stall diagnostics). */
    const Request* oldest() const;

    /** Earliest-pushed queued request (fifo stall diagnostics). */
    const Request* firstPushed() const;

    /** Queued requests of one workload class (stall diagnostics). */
    size_t depthFor(size_t workload) const;

  private:
    /** Remove and return entry `i` of shard `s`. */
    Request take(size_t s, size_t i);

    /** Deepest non-empty shard other than `exclude`, or shards(). */
    size_t deepestExcept(size_t exclude) const;

    std::vector<std::vector<Request>> shards_;
    /** Per shard, a lower bound on the arrival of its unkicked
     *  requests (~Tick{0}: none); exact after each scan. */
    std::vector<Tick> unkickedBound_;
    size_t capacity_;
    size_t depth_ = 0;
    uint64_t pushes_ = 0;
};

} // namespace hydra

#endif // HYDRA_SERVE_CAKE_HH

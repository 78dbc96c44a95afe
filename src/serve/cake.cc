#include "serve/cake.hh"

#include <algorithm>

namespace hydra {

namespace {

/** Demotion fires at 8 wait budgets of deficit, promotion back at 2:
 *  one quantum of jitter never demotes, and a demoted hog must drain
 *  three quarters of the threshold before it competes at its spec
 *  tier again (no flapping at the boundary). */
constexpr uint64_t kDemoteBudgets = 8;
constexpr uint64_t kPromoteDivisor = 4;

} // namespace

DeficitLedger::DeficitLedger(const ServeSpec& spec)
{
    size_t n = spec.tenants.size();
    finish_.assign(n, 0);
    baseTier_.reserve(n);
    for (const auto& t : spec.tenants)
        baseTier_.push_back(t.priority);
    demoted_.assign(n, 0);
    tenantDemotions_.assign(n, 0);
    demoteThreshold_ = spec.waitBudgetTicks(0) * kDemoteBudgets;
}

void
DeficitLedger::charge(size_t t, Tick span, uint64_t weight)
{
    VirtualTag start = startTag(t);
    v_ = start;
    finish_[t] = start + static_cast<VirtualTag>(span) * weight;
    charged_ += span * weight; // mod 2^64: conservation identity only
    updateTier(t);
}

void
DeficitLedger::refund(size_t t, Tick unrun, uint64_t weight)
{
    VirtualTag back = static_cast<VirtualTag>(unrun) * weight;
    finish_[t] = finish_[t] > back ? finish_[t] - back : 0;
    refunded_ += unrun * weight;
    updateTier(t);
}

void
DeficitLedger::updateTier(size_t t)
{
    Tick d = deficit(t);
    if (!demoted_[t] && d > demoteThreshold_) {
        demoted_[t] = 1;
        ++demotions_;
        ++tenantDemotions_[t];
    } else if (demoted_[t] && d < demoteThreshold_ / kPromoteDivisor) {
        demoted_[t] = 0;
        ++promotions_;
    }
}

CakeQueue::CakeQueue(size_t shards, size_t capacity)
    : shards_(shards), capacity_(capacity)
{
}

void
CakeQueue::push(size_t s, const Request& r)
{
    shards_[s].push_back(r);
    shards_[s].back().pushSeq = pushes_++;
    ++depth_;
}

Request
CakeQueue::take(size_t s, size_t i)
{
    auto& q = shards_[s];
    Request r = q[i];
    q.erase(q.begin() + static_cast<std::ptrdiff_t>(i));
    --depth_;
    return r;
}

size_t
CakeQueue::deepestExcept(size_t exclude) const
{
    size_t victim = shards_.size();
    size_t deepest = 0;
    for (size_t s = 0; s < shards_.size(); ++s) {
        if (s != exclude && shards_[s].size() > deepest) {
            deepest = shards_[s].size();
            victim = s;
        }
    }
    return victim;
}

Tick
CakeQueue::kickStarved(Tick now, Tick kick,
                       const std::function<void(const Request&)>& on_kick)
{
    Tick earliest = ~Tick{0};
    for (auto& q : shards_)
        for (auto& r : q) {
            if (!r.kicked && now >= r.arrival &&
                now - r.arrival >= kick) {
                r.kicked = true;
                on_kick(r);
            }
            earliest = std::min(earliest, r.arrival);
        }
    return earliest;
}

std::vector<Request>
CakeQueue::drainAll()
{
    std::vector<Request> out;
    out.reserve(depth_);
    for (auto& q : shards_) {
        out.insert(out.end(), q.begin(), q.end());
        q.clear();
    }
    depth_ = 0;
    return out;
}

std::vector<Request>
CakeQueue::drainShard(size_t s)
{
    std::vector<Request> out = std::move(shards_[s]);
    shards_[s].clear();
    depth_ -= out.size();
    return out;
}

const Request*
CakeQueue::oldest() const
{
    const Request* o = nullptr;
    for (const auto& q : shards_)
        for (const auto& r : q)
            if (!o || r.arrival < o->arrival ||
                (r.arrival == o->arrival && r.id < o->id))
                o = &r;
    return o;
}

const Request*
CakeQueue::firstPushed() const
{
    // Shards only append, so each shard's front is its earliest push.
    const Request* o = nullptr;
    for (const auto& q : shards_)
        if (!q.empty() && (!o || q.front().pushSeq < o->pushSeq))
            o = &q.front();
    return o;
}

size_t
CakeQueue::depthFor(size_t workload) const
{
    size_t n = 0;
    for (const auto& q : shards_)
        for (const auto& r : q)
            n += r.workload == workload;
    return n;
}

} // namespace hydra

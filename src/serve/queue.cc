#include "serve/queue.hh"

namespace hydra {

bool
AdmissionQueue::offer(const Request& r)
{
    if (full())
        return false;
    q_.push_back(r);
    return true;
}

std::optional<Request>
AdmissionQueue::popFor(size_t workload,
                       const std::vector<uint64_t>& served_per_tenant)
{
    size_t best = q_.size();
    for (size_t i = 0; i < q_.size(); ++i) {
        if (q_[i].workload != workload)
            continue;
        if (best == q_.size()) {
            best = i;
            continue;
        }
        const Request& a = q_[i];
        const Request& b = q_[best];
        if (a.priority != b.priority) {
            if (a.priority < b.priority)
                best = i;
            continue;
        }
        uint64_t sa = a.tenant < served_per_tenant.size()
                          ? served_per_tenant[a.tenant]
                          : 0;
        uint64_t sb = b.tenant < served_per_tenant.size()
                          ? served_per_tenant[b.tenant]
                          : 0;
        if (sa < sb)
            best = i; // fairness: least-served tenant wins the slot
        // equal -> keep `best` (earlier admission, FIFO)
    }
    if (best == q_.size())
        return std::nullopt;
    Request r = q_[best];
    q_.erase(q_.begin() + static_cast<std::ptrdiff_t>(best));
    return r;
}

size_t
AdmissionQueue::depthFor(size_t workload) const
{
    size_t n = 0;
    for (const auto& r : q_)
        n += r.workload == workload;
    return n;
}

std::vector<Request>
AdmissionQueue::drainAll()
{
    std::vector<Request> out = std::move(q_);
    q_.clear();
    return out;
}

std::vector<Request>
AdmissionQueue::drainWorkload(size_t workload)
{
    std::vector<Request> out;
    size_t w = 0;
    for (size_t i = 0; i < q_.size(); ++i) {
        if (q_[i].workload == workload)
            out.push_back(q_[i]);
        else
            q_[w++] = q_[i];
    }
    q_.resize(w);
    return out;
}

} // namespace hydra

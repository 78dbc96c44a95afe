#include "sim/eventq.hh"

#include <algorithm>

#include "common/logging.hh"

namespace hydra {

void
EventQueue::schedule(Tick when, std::function<void()> cb)
{
    HYDRA_ASSERT(when >= now_, "scheduling into the past");
    events_.push_back(Event{when, seq_++, std::move(cb)});
    std::push_heap(events_.begin(), events_.end(), later);
}

bool
EventQueue::step()
{
    if (events_.empty())
        return false;
    std::pop_heap(events_.begin(), events_.end(), later);
    Event ev = std::move(events_.back());
    events_.pop_back();
    now_ = ev.when;
    ++executed_;
    ev.cb();
    return true;
}

Tick
EventQueue::run()
{
    while (step()) {
    }
    return now_;
}

} // namespace hydra

/**
 * @file
 * Discrete-event simulation core.
 *
 * Time is measured in integer picoseconds (Tick), gem5-style, so card
 * cycles (300 MHz => 3333 ps) and network serialization delays compose
 * without rounding drift.  Events scheduled for the same tick fire in
 * insertion order (deterministic).
 */

#ifndef HYDRA_SIM_EVENTQ_HH
#define HYDRA_SIM_EVENTQ_HH

#include <cstdint>
#include <functional>
#include <vector>

namespace hydra {

/** Simulated time in picoseconds. */
using Tick = std::uint64_t;

constexpr Tick kTicksPerSecond = 1'000'000'000'000ULL;

/** Convert seconds (double) to ticks. */
inline Tick
secondsToTicks(double s)
{
    return static_cast<Tick>(s * static_cast<double>(kTicksPerSecond));
}

/** Convert ticks to seconds. */
inline double
ticksToSeconds(Tick t)
{
    return static_cast<double>(t) / static_cast<double>(kTicksPerSecond);
}

/** Deterministic event queue. */
class EventQueue
{
  public:
    /** Schedule `cb` at absolute time `when` (>= now). */
    void schedule(Tick when, std::function<void()> cb);

    /** Schedule `cb` at now + delay. */
    void
    scheduleAfter(Tick delay, std::function<void()> cb)
    {
        schedule(now_ + delay, std::move(cb));
    }

    /** Current simulated time. */
    Tick now() const { return now_; }

    /** Whether any event is pending. */
    bool empty() const { return events_.empty(); }

    /** Pop and execute the next event; returns false when drained. */
    bool step();

    /** Run until the queue drains; returns the final time. */
    Tick run();

    /** Number of events executed so far. */
    uint64_t executedCount() const { return executed_; }

  private:
    struct Event
    {
        Tick when;
        uint64_t seq;
        std::function<void()> cb;
    };

    /** Heap order: the earliest (when, seq) on top. */
    static bool
    later(const Event& a, const Event& b)
    {
        return a.when != b.when ? a.when > b.when : a.seq > b.seq;
    }

    /** Binary min-heap on (when, seq).  A plain vector, not a
     *  priority_queue, so step() can move the callback out. */
    std::vector<Event> events_;
    Tick now_ = 0;
    uint64_t seq_ = 0;
    uint64_t executed_ = 0;
};

} // namespace hydra

#endif // HYDRA_SIM_EVENTQ_HH

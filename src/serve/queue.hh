/**
 * @file
 * Bounded admission queue with priority tiers and per-tenant fairness.
 *
 * Arrivals beyond the capacity are shed with a structured reject
 * reason instead of queueing unboundedly (load shedding keeps tail
 * latency bounded under overload).  Dispatch picks, among the queued
 * requests a group can serve, the highest priority tier first, then
 * the tenant with the fewest dispatches so far (fairness counter),
 * then FIFO arrival order.
 *
 * The serving engine dispatches both policies from the sharded
 * CakeQueue (serve/cake.hh), where fifoRank over one shard per
 * workload class reproduces popFor's order exactly.  AdmissionQueue
 * is that order's reference implementation (tests compare the two)
 * and the subject of the benchmark's popFor probe.  RejectReason is
 * shared by both policies.
 */

#ifndef HYDRA_SERVE_QUEUE_HH
#define HYDRA_SERVE_QUEUE_HH

#include <optional>
#include <vector>

#include "serve/workload_gen.hh"

namespace hydra {

/** Why an offered request was not admitted / not served. */
enum class RejectReason : uint8_t
{
    /** The admission queue was at capacity (shed on arrival). */
    QueueFull,
    /** No live card group serves the request's workload class (on
     *  arrival, or flushed after a fault dissolved the last group). */
    NoCapacity,
};

/** Bounded FIFO with priority tiers and tenant-fair dequeue. */
class AdmissionQueue
{
  public:
    explicit AdmissionQueue(size_t capacity) : capacity_(capacity) {}

    size_t capacity() const { return capacity_; }
    size_t depth() const { return q_.size(); }
    bool empty() const { return q_.empty(); }
    bool full() const { return q_.size() >= capacity_; }

    /** Admit `r`; false when the queue is at capacity (caller sheds). */
    bool offer(const Request& r);

    /**
     * Re-admit already-admitted work (federated failover): a request
     * re-queued off a dying cluster held no queue slot while running,
     * so it re-enters even past the capacity bound — shedding it on a
     * transiently full queue would break admission accounting.
     */
    void requeue(const Request& r) { q_.push_back(r); }

    /** Earliest-admitted queued request (stall diagnostics). */
    const Request* oldest() const
    {
        return q_.empty() ? nullptr : &q_.front();
    }

    /** Queued requests of one workload class (stall diagnostics). */
    size_t depthFor(size_t workload) const;

    /** Remove and return everything queued (no-progress watchdog). */
    std::vector<Request> drainAll();

    /**
     * Dequeue the best queued request of workload class `workload`:
     * lowest priority value first, then the tenant with the smallest
     * `served_per_tenant` count, then earliest admission.  Returns
     * nullopt when nothing of that class is queued.
     */
    std::optional<Request>
    popFor(size_t workload,
           const std::vector<uint64_t>& served_per_tenant);

    /** Remove and return every queued request of `workload` (flush
     *  path when the last group serving it dissolves). */
    std::vector<Request> drainWorkload(size_t workload);

  private:
    size_t capacity_;
    std::vector<Request> q_; // admission order
};

} // namespace hydra

#endif // HYDRA_SERVE_QUEUE_HH

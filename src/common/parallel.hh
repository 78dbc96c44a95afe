/**
 * @file
 * Lightweight persistent thread pool for the functional CKKS engine.
 *
 * Parallelism has two levels.  The outer, op level runs independent
 * ciphertext operations -- BSGS giant steps, hoisted rotations -- as
 * pool tasks (parallelForOuter); the inner, limb level parallelizes
 * each RnsPoly op over its limbs (and keyswitch digits / output limbs).
 * A parallelFor issued from inside a task runs serially, so exactly
 * one level is live at a time.
 *
 * parallelFor() dispatches a half-open index range onto the pool with
 * deterministic static partitioning: worker w always receives the same
 * contiguous chunk of indices for a given (range, thread count), and
 * every index writes only its own outputs, so results are bit-exact
 * regardless of the configured thread count.
 *
 * Thread count comes from the HYDRA_THREADS environment variable
 * (default: std::thread::hardware_concurrency()).  A count of 1 is a
 * fully serial fallback that never touches a mutex or spawns a thread.
 * Idle workers, and a caller waiting on its workers, spin briefly
 * before sleeping, so back-to-back jobs skip the condvar hand-off.
 */

#ifndef HYDRA_COMMON_PARALLEL_HH
#define HYDRA_COMMON_PARALLEL_HH

#include <cstddef>
#include <functional>

namespace hydra {

/**
 * Process-wide worker pool.  Workers persist across parallelFor calls;
 * reconfiguration via setThreadCount joins and respawns them.
 */
class ThreadPool
{
  public:
    /** The singleton pool, lazily created on first use. */
    static ThreadPool& instance();

    ~ThreadPool();

    ThreadPool(const ThreadPool&) = delete;
    ThreadPool& operator=(const ThreadPool&) = delete;

    /** Configured thread count (callers participate, so >= 1). */
    size_t threadCount() const { return nThreads_; }

    /**
     * Reconfigure the pool to `n` threads (0 = hardware concurrency).
     * Joins existing workers first; must not be called concurrently
     * with parallelFor.
     */
    void setThreadCount(size_t n);

    /**
     * Run fn(i) for every i in [begin, end).  The caller's thread
     * executes chunk 0; workers execute the remaining chunks.  Blocks
     * until every index has been processed.  Nested calls (fn itself
     * calling parallelFor) degrade to serial execution.
     */
    void parallelFor(size_t begin, size_t end,
                     const std::function<void(size_t)>& fn);

  private:
    ThreadPool();

    struct Impl;
    Impl* impl_;
    size_t nThreads_ = 1;
};

/** Convenience wrapper over ThreadPool::instance().parallelFor. */
inline void
parallelFor(size_t begin, size_t end,
            const std::function<void(size_t)>& fn)
{
    ThreadPool::instance().parallelFor(begin, end, fn);
}

/**
 * Op-level loop over `count` independent ciphertext operations: runs
 * them as pool tasks when there are at least threadCount() of them, so
 * every thread gets a whole operation.  Fewer operations run one after
 * another, each keeping its own limb-level parallelism.
 */
inline void
parallelForOuter(size_t count, const std::function<void(size_t)>& fn)
{
    if (count >= ThreadPool::instance().threadCount()) {
        parallelFor(0, count, fn);
        return;
    }
    for (size_t i = 0; i < count; ++i)
        fn(i);
}

} // namespace hydra

#endif // HYDRA_COMMON_PARALLEL_HH

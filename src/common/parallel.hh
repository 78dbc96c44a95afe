/**
 * @file
 * Lightweight persistent thread pool for the functional CKKS engine.
 *
 * Parallelism has two levels that nest through thread teams.  The
 * outer, op level runs independent ciphertext operations -- BSGS giant
 * steps, hoisted rotations, EvalMod's two lanes, the products of one
 * power-basis level -- as pool tasks (parallelForOuter); the inner,
 * limb level parallelizes each RnsPoly op over its limbs (and
 * keyswitch digits / output limbs) with parallelFor.
 *
 * Every call runs on the calling thread's team: a contiguous range of
 * thread ids it may hand work to.  An outside caller's team is the
 * whole pool.  parallelFor splits its index range over the team and
 * each chunk runs on a team of one, so a parallelFor nested inside it
 * runs serially.  parallelForOuter with fewer tasks than team threads
 * splits the team into that many sub-teams of fixed, contiguous ids
 * (sizes differ by at most one; task i runs on sub-team i), so each
 * task's nested parallelFor and parallelForOuter calls use only its
 * sub-team.  With at least as many tasks as threads it is parallelFor.
 *
 * Partitioning is static: for a given (range, team size) chunk w always
 * runs the same contiguous indices on the same thread, and every index
 * writes only its own outputs, so results are bit-exact regardless of
 * the configured thread count.
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
     * Run fn(i) for every i in [begin, end), statically chunked over
     * the calling thread's team.  The caller executes chunk 0; team
     * workers execute the rest.  Blocks until every index has been
     * processed.  Calls nested inside a chunk run serially.
     */
    void parallelFor(size_t begin, size_t end,
                     const std::function<void(size_t)>& fn);

    /**
     * Run fn(i) for every i in [0, count) as independent tasks.  With
     * 1 < count < team size, task i runs on sub-team i, and calls nested
     * inside it parallelize over that sub-team; otherwise this is
     * parallelFor(0, count, fn).
     */
    void parallelForOuter(size_t count,
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

/** Convenience wrapper over ThreadPool::instance().parallelForOuter. */
inline void
parallelForOuter(size_t count, const std::function<void(size_t)>& fn)
{
    ThreadPool::instance().parallelForOuter(count, fn);
}

} // namespace hydra

#endif // HYDRA_COMMON_PARALLEL_HH

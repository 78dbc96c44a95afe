#include "common/parallel.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/pool.hh"

namespace hydra {

namespace {

/** Set while a thread is executing inside a parallelFor region. */
thread_local bool tls_in_parallel_region = false;

/**
 * How long an idle worker (or a caller waiting on its workers) polls
 * before blocking on a condition variable.  Back-to-back jobs -- the
 * common case inside one homomorphic operation -- are then picked up
 * without a futex wake-up, while an idle pool still sleeps.
 */
constexpr auto kSpinBudget = std::chrono::microseconds(50);

size_t
defaultThreadCount()
{
    if (const char* env = std::getenv("HYDRA_THREADS")) {
        char* end = nullptr;
        long v = std::strtol(env, &end, 10);
        if (end != env && v >= 1)
            return static_cast<size_t>(v);
        warn("ignoring invalid HYDRA_THREADS value '%s'", env);
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw == 0 ? 1 : static_cast<size_t>(hw);
}

/** Static partition: chunk w of [begin, end) over nchunks chunks. */
inline std::pair<size_t, size_t>
chunkRange(size_t begin, size_t end, size_t w, size_t nchunks)
{
    size_t count = end - begin;
    size_t base = count / nchunks;
    size_t rem = count % nchunks;
    size_t lo = begin + w * base + std::min(w, rem);
    size_t hi = lo + base + (w < rem ? 1 : 0);
    return {lo, hi};
}

inline void
cpuRelax()
{
#if defined(__x86_64__) || defined(__i386__)
    __builtin_ia32_pause();
#endif
}

/**
 * Poll `ready` for at most kSpinBudget; true once it holds.  Every 64th
 * poll yields the core, so on an oversubscribed host a spinning thread
 * hands its time slice to the thread it is waiting for.
 */
template <class Ready>
bool
spinUntil(Ready ready)
{
    auto deadline = std::chrono::steady_clock::now() + kSpinBudget;
    for (unsigned i = 1;; ++i) {
        if (ready())
            return true;
        if (i % 64 == 0) {
            if (std::chrono::steady_clock::now() >= deadline)
                return ready();
            std::this_thread::yield();
        } else {
            cpuRelax();
        }
    }
}

} // namespace

/**
 * Dispatch protocol.  The caller publishes the job fields, then bumps
 * `generation`; workers that spin on `generation` see the job without
 * any lock.  Sleeping is a Dekker handshake: a worker increments
 * `sleepers` before re-checking `generation` under `m`, and the caller
 * re-reads `sleepers` after the bump, so one of the two always sees the
 * other and no wake-up is lost.  Completion mirrors it with `pending`
 * and `callerSleeping`.  All handshake accesses are sequentially
 * consistent; the job fields ride on the generation's release/acquire.
 */
struct ThreadPool::Impl
{
    std::vector<std::thread> workers;

    std::mutex m;
    std::condition_variable cvStart;
    std::condition_variable cvDone;

    // Current job, valid while pending > 0.
    const std::function<void(size_t)>* fn = nullptr;
    size_t jobBegin = 0;
    size_t jobEnd = 0;
    size_t jobChunks = 0;
    /** Incremented per job so workers detect new work. */
    alignas(64) std::atomic<std::uint64_t> generation{0};
    /** Worker chunks not yet finished for the current job.  On its own
     *  cache line: finishing workers must not disturb spinning ones. */
    alignas(64) std::atomic<size_t> pending{0};
    std::atomic<bool> shutdown{false};
    /** Workers blocked (or about to block) on cvStart. */
    alignas(64) std::atomic<size_t> sleepers{0};
    /** The caller is blocked (or about to block) on cvDone. */
    std::atomic<bool> callerSleeping{false};

    void
    workerLoop(size_t id, std::uint64_t seen)
    {
        // Worker `id` owns chunk id+1 (the caller runs chunk 0) and the
        // buffer-pool slot of the same number.
        size_t w = id + 1;
        BufferPool::bindThreadSlot(w);
        auto ready = [&] {
            return shutdown.load() || generation.load() != seen;
        };
        for (;;) {
            if (!spinUntil(ready)) {
                std::unique_lock<std::mutex> lk(m);
                sleepers.fetch_add(1);
                cvStart.wait(lk, ready);
                sleepers.fetch_sub(1);
            }
            if (shutdown.load())
                return;
            seen = generation.load(std::memory_order_acquire);
            if (w < jobChunks) {
                auto [lo, hi] = chunkRange(jobBegin, jobEnd, w, jobChunks);
                tls_in_parallel_region = true;
                for (size_t i = lo; i < hi; ++i)
                    (*fn)(i);
                tls_in_parallel_region = false;
            }
            if (pending.fetch_sub(1) == 1 && callerSleeping.load()) {
                std::lock_guard<std::mutex> lk(m);
                cvDone.notify_one();
            }
        }
    }

    void
    start(size_t n_workers)
    {
        // Fresh workers must treat the current generation as already
        // handled: after a stop()/start() cycle the counter keeps its
        // old value, and a zero-initialized `seen` would make them wake
        // instantly on a phantom job with a stale fn pointer.
        std::uint64_t gen = generation.load();
        workers.reserve(n_workers);
        for (size_t i = 0; i < n_workers; ++i)
            workers.emplace_back([this, i, gen] { workerLoop(i, gen); });
    }

    void
    stop()
    {
        {
            std::lock_guard<std::mutex> lk(m);
            shutdown.store(true);
        }
        cvStart.notify_all();
        for (auto& t : workers)
            t.join();
        workers.clear();
        shutdown.store(false);
    }

    /** Publish a job of `nchunks` chunks to `n_workers` workers. */
    void
    dispatch(const std::function<void(size_t)>& f, size_t b, size_t e,
             size_t nchunks, size_t n_workers)
    {
        fn = &f;
        jobBegin = b;
        jobEnd = e;
        jobChunks = nchunks;
        pending.store(n_workers);
        generation.fetch_add(1); // seq_cst: also releases the job fields
        if (sleepers.load() > 0) {
            // Taking the mutex orders this wake-up after any worker that
            // counted itself a sleeper has reached its wait.
            { std::lock_guard<std::mutex> lk(m); }
            cvStart.notify_all();
        }
    }

    /** Block until every worker has finished the current job. */
    void
    join()
    {
        auto done = [&] { return pending.load() == 0; };
        if (!spinUntil(done)) {
            std::unique_lock<std::mutex> lk(m);
            callerSleeping.store(true);
            cvDone.wait(lk, done);
            callerSleeping.store(false);
        }
        fn = nullptr;
    }
};

ThreadPool::ThreadPool()
    : impl_(new Impl)
{
    nThreads_ = defaultThreadCount();
    if (nThreads_ > 1)
        impl_->start(nThreads_ - 1);
}

ThreadPool::~ThreadPool()
{
    impl_->stop();
    delete impl_;
}

ThreadPool&
ThreadPool::instance()
{
    // Intentionally leaked: running the destructor at exit would join
    // workers from a static destructor (fragile ordering), and a
    // fork()ed child -- e.g. a gtest death test -- would crash joining
    // threads that do not exist in the child.  Workers die with the
    // process.
    static ThreadPool* pool = new ThreadPool;
    return *pool;
}

void
ThreadPool::setThreadCount(size_t n)
{
    if (n == 0)
        n = defaultThreadCount();
    if (n == nThreads_)
        return;
    impl_->stop();
    nThreads_ = n;
    if (nThreads_ > 1)
        impl_->start(nThreads_ - 1);
}

void
ThreadPool::parallelFor(size_t begin, size_t end,
                        const std::function<void(size_t)>& fn)
{
    if (begin >= end)
        return;
    size_t count = end - begin;
    size_t nchunks = std::min(nThreads_, count);
    if (nchunks <= 1 || tls_in_parallel_region) {
        // Serial fallback: single thread configured, tiny range, or a
        // nested call from inside a worker chunk.
        for (size_t i = begin; i < end; ++i)
            fn(i);
        return;
    }

    impl_->dispatch(fn, begin, end, nchunks, nThreads_ - 1);

    // The caller executes chunk 0 while workers run the rest.
    auto [lo, hi] = chunkRange(begin, end, 0, nchunks);
    tls_in_parallel_region = true;
    for (size_t i = lo; i < hi; ++i)
        fn(i);
    tls_in_parallel_region = false;

    impl_->join();
}

} // namespace hydra

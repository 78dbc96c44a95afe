#include "common/parallel.hh"

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdlib>
#include <memory>
#include <mutex>
#include <thread>
#include <vector>

#include "common/logging.hh"
#include "common/pool.hh"

namespace hydra {

namespace {

/** The calling thread's pool id: 0 for an outside caller, w for worker w. */
thread_local size_t tls_id = 0;

/**
 * Size of the calling thread's team: it may hand work to thread ids
 * [tls_id, tls_id + tls_team).  0 (an outside caller) means the whole
 * pool.
 */
thread_local size_t tls_team = 0;

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
 * Dispatch protocol.  Every thread id owns a seat.  As a worker, a
 * thread takes assignments from its seat's mailbox: the leader that
 * owns it writes the assignment fields, then bumps `generation`; a
 * worker spinning on `generation` sees the job without any lock.
 * Sleeping is a Dekker handshake: a worker sets `sleeping` before
 * re-checking `generation` under `m`, and the leader re-reads
 * `sleeping` after the bump, so one of the two always sees the other
 * and no wake-up is lost.  As a leader, a thread counts each fork's
 * unfinished parts in a counter on its own stack; completion mirrors
 * the handshake with the leader seat's `leaderSleeping`.  A thread
 * waits either for an assignment or for its workers, never both, so
 * one mutex and one condition variable per seat serve both roles.  All
 * handshake accesses are sequentially consistent; the assignment
 * fields ride on the generation's release/acquire.
 *
 * Teams are disjoint ranges of seats, and a leader hands work only to
 * seats in its own team, so at most one leader writes a mailbox at a
 * time, and only after that seat finished its previous assignment.
 */
struct ThreadPool::Impl
{
    struct Seat
    {
        /** Bumped per assignment so the worker detects new work. */
        alignas(64) std::atomic<std::uint64_t> generation{0};
        // The assignment: fn(i) for i in [lo, hi) on a team of `team`
        // threads, then a decrement of `pending`, the unfinished-part
        // count of seat `leader`'s fork.
        const std::function<void(size_t)>* fn = nullptr;
        size_t lo = 0;
        size_t hi = 0;
        size_t team = 1;
        size_t leader = 0;
        std::atomic<size_t>* pending = nullptr;
        /** The worker is blocked (or about to block) on cv. */
        std::atomic<bool> sleeping{false};

        /** This thread is blocked (or about to block) on cv waiting for
         *  one of its forks to drain.  On its own cache line: finishing
         *  workers must not disturb the mailbox a worker spins on. */
        alignas(64) std::atomic<bool> leaderSleeping{false};

        std::mutex m;
        std::condition_variable cv;
    };

    std::unique_ptr<Seat[]> seats;
    std::vector<std::thread> workers;
    std::atomic<bool> shutdown{false};

    void
    workerLoop(size_t id)
    {
        // Worker `id` owns the buffer-pool slot of the same number.
        tls_id = id;
        BufferPool::bindThreadSlot(id);
        Seat& me = seats[id];
        std::uint64_t seen = 0;
        auto ready = [&] {
            return shutdown.load() || me.generation.load() != seen;
        };
        for (;;) {
            if (!spinUntil(ready)) {
                std::unique_lock<std::mutex> lk(me.m);
                me.sleeping.store(true);
                me.cv.wait(lk, ready);
                me.sleeping.store(false);
            }
            if (shutdown.load())
                return;
            seen = me.generation.load(std::memory_order_acquire);
            // Read the assignment before reporting: the leader may
            // rewrite the mailbox as soon as `pending` drains.
            const std::function<void(size_t)>& fn = *me.fn;
            size_t hi = me.hi;
            Seat& lead = seats[me.leader];
            std::atomic<size_t>& pending = *me.pending;
            tls_team = me.team;
            for (size_t i = me.lo; i < hi; ++i)
                fn(i);
            // The fork's counter lives on the leader's stack: past the
            // decrement only the leader's seat may be touched.
            if (pending.fetch_sub(1) == 1 && lead.leaderSleeping.load()) {
                std::lock_guard<std::mutex> lk(lead.m);
                lead.cv.notify_one();
            }
        }
    }

    void
    start(size_t n_threads)
    {
        seats = std::make_unique<Seat[]>(n_threads);
        workers.reserve(n_threads - 1);
        for (size_t id = 1; id < n_threads; ++id)
            workers.emplace_back([this, id] { workerLoop(id); });
    }

    void
    stop()
    {
        shutdown.store(true);
        for (size_t id = 1; id <= workers.size(); ++id) {
            // Taking the mutex orders this wake-up after a worker that
            // set `sleeping` has reached its wait.
            { std::lock_guard<std::mutex> lk(seats[id].m); }
            seats[id].cv.notify_one();
        }
        for (auto& t : workers)
            t.join();
        workers.clear();
        seats.reset();
        shutdown.store(false);
    }

    /** Post fn(i) for i in [lo, hi) on a team of `team` to seat `id`. */
    void
    hand(size_t id, const std::function<void(size_t)>& fn, size_t lo,
         size_t hi, size_t team, size_t leader,
         std::atomic<size_t>& pending)
    {
        Seat& w = seats[id];
        w.fn = &fn;
        w.lo = lo;
        w.hi = hi;
        w.team = team;
        w.leader = leader;
        w.pending = &pending;
        w.generation.fetch_add(1); // seq_cst: also releases the fields
        if (w.sleeping.load()) {
            { std::lock_guard<std::mutex> lk(w.m); }
            w.cv.notify_one();
        }
    }

    /** Block until `pending`, a fork of the caller's, drains. */
    void
    join(Seat& me, const std::atomic<size_t>& pending)
    {
        auto done = [&] { return pending.load() == 0; };
        if (!spinUntil(done)) {
            std::unique_lock<std::mutex> lk(me.m);
            me.leaderSleeping.store(true);
            me.cv.wait(lk, done);
            me.leaderSleeping.store(false);
        }
    }

    /**
     * Split [begin, end) into `parts` static chunks over the caller's
     * team of `team` threads and run them.  Without `teams`, chunk w
     * runs on team thread w, alone.  With `teams`, the team splits into
     * `parts` contiguous sub-teams and chunk w runs on sub-team w.  The
     * caller runs chunk 0 on its own (sub-)team.
     */
    void
    fork(size_t parts, size_t team, bool teams, size_t begin, size_t end,
         const std::function<void(size_t)>& fn)
    {
        size_t me = tls_id;
        auto threadsOf = [&](size_t w) {
            return teams ? chunkRange(0, team, w, parts)
                         : std::pair<size_t, size_t>{w, w + 1};
        };
        // One counter per fork: a task of a team fork leads forks of
        // its own while the outer one is still outstanding.
        alignas(64) std::atomic<size_t> pending{parts - 1};
        for (size_t w = 1; w < parts; ++w) {
            auto [lo, hi] = chunkRange(begin, end, w, parts);
            auto [t0, t1] = threadsOf(w);
            hand(me + t0, fn, lo, hi, t1 - t0, me, pending);
        }

        auto [lo, hi] = chunkRange(begin, end, 0, parts);
        auto [t0, t1] = threadsOf(0);
        size_t saved = tls_team;
        tls_team = t1 - t0;
        for (size_t i = lo; i < hi; ++i)
            fn(i);
        tls_team = saved;
        join(seats[me], pending);
    }
};

ThreadPool::ThreadPool()
    : impl_(new Impl)
{
    nThreads_ = defaultThreadCount();
    if (nThreads_ > 1)
        impl_->start(nThreads_);
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
        impl_->start(nThreads_);
}

void
ThreadPool::parallelFor(size_t begin, size_t end,
                        const std::function<void(size_t)>& fn)
{
    if (begin >= end)
        return;
    size_t team = tls_team ? tls_team : nThreads_;
    size_t nchunks = std::min(team, end - begin);
    if (nchunks <= 1) {
        // Serial: a team of one (one thread configured, or a call
        // nested inside a chunk) or a single index.
        for (size_t i = begin; i < end; ++i)
            fn(i);
        return;
    }
    impl_->fork(nchunks, team, false, begin, end, fn);
}

void
ThreadPool::parallelForOuter(size_t count,
                             const std::function<void(size_t)>& fn)
{
    size_t team = tls_team ? tls_team : nThreads_;
    if (count <= 1 || count >= team) {
        parallelFor(0, count, fn);
        return;
    }
    impl_->fork(count, team, true, 0, count, fn);
}

} // namespace hydra

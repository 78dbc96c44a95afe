/**
 * @file
 * Size-bucketed buffer pool for RNS limb storage.
 *
 * Every RnsPoly stores its limbs in one contiguous cache-aligned
 * allocation of limbCount * n 64-bit words.  Evaluator operations churn
 * through short-lived temporaries (keyswitch digits, rotation
 * accumulators, rescale scratch), so steady-state work would otherwise
 * hit the allocator once per temporary per limb.  The pool recycles
 * released buffers in exact-size buckets: after one warm-up pass of a
 * workload every acquire is a free-list pop.
 *
 * The buckets are split into per-thread slots.  Each ThreadPool worker
 * binds its own slot (bindThreadSlot); every other thread shares slot 0.
 * Thread teams do not change this: a task acquires from the slots of
 * its own team's threads.
 * A buffer remembers the slot that acquired it and always returns there,
 * even when another thread releases it, and an acquire only pops from
 * the calling thread's slot.  Each thread's hits and misses therefore
 * depend only on its own, statically partitioned, sequence of acquires
 * and on releases ordered by the pool's job boundaries -- never on how
 * the threads interleave -- so a warm workload misses zero times at any
 * thread count.
 *
 * acquire()/release() take the slot's mutex (rare relative to the O(n)
 * work done on each buffer) and are counted: hits (reused buffer),
 * misses (fresh allocation) and outstanding (live buffers) are visible
 * to tests and benches via stats().  Returned memory is NOT zeroed;
 * callers that need a zero buffer clear it themselves.
 */

#ifndef HYDRA_COMMON_POOL_HH
#define HYDRA_COMMON_POOL_HH

#include <cstddef>
#include <cstdint>
#include <utility>

namespace hydra {

class BufferPool;

/**
 * RAII handle to one pooled allocation of `words()` 64-bit words,
 * aligned to 64 bytes.  Movable; returns the memory to its pool on
 * destruction.  Contents are uninitialized on acquisition.
 */
class PoolBuffer
{
  public:
    PoolBuffer() = default;

    PoolBuffer(PoolBuffer&& other) noexcept
        : ptr_(std::exchange(other.ptr_, nullptr)),
          words_(std::exchange(other.words_, 0)),
          slot_(other.slot_)
    {
    }

    PoolBuffer&
    operator=(PoolBuffer&& other) noexcept
    {
        if (this != &other) {
            reset();
            ptr_ = std::exchange(other.ptr_, nullptr);
            words_ = std::exchange(other.words_, 0);
            slot_ = other.slot_;
        }
        return *this;
    }

    PoolBuffer(const PoolBuffer&) = delete;
    PoolBuffer& operator=(const PoolBuffer&) = delete;

    ~PoolBuffer() { reset(); }

    /** Return the buffer to the pool early (handle becomes empty). */
    void reset();

    std::uint64_t* data() { return ptr_; }
    const std::uint64_t* data() const { return ptr_; }
    size_t words() const { return words_; }
    bool valid() const { return ptr_ != nullptr; }

  private:
    friend class BufferPool;
    PoolBuffer(std::uint64_t* p, size_t words, size_t slot)
        : ptr_(p), words_(words), slot_(slot)
    {
    }

    std::uint64_t* ptr_ = nullptr;
    size_t words_ = 0;
    size_t slot_ = 0; ///< pool slot the buffer returns to
};

/** Process-wide pool; all RnsPoly storage flows through global(). */
class BufferPool
{
  public:
    /** Counter snapshot; all values are cumulative except outstanding/cached. */
    struct Stats
    {
        std::uint64_t hits = 0;     ///< acquires served from a bucket
        std::uint64_t misses = 0;   ///< acquires that allocated fresh memory
        std::uint64_t released = 0; ///< buffers returned to the pool
        std::uint64_t outstanding = 0; ///< live (acquired, unreleased) buffers
        std::uint64_t cached = 0;      ///< idle buffers parked in buckets
        std::uint64_t cachedWords = 0; ///< total words parked in buckets
    };

    /** The singleton pool shared by every RnsPoly. */
    static BufferPool& global();

    /** Slots with their own buckets; higher slot numbers share slot 0. */
    static constexpr size_t kSlots = 64;

    /**
     * Make the calling thread acquire from (and own buffers in) `slot`.
     * ThreadPool worker thread id binds slot id (1..T-1); unbound
     * threads, the pool's outside caller among them, use slot 0.
     */
    static void bindThreadSlot(size_t slot);

    BufferPool(const BufferPool&) = delete;
    BufferPool& operator=(const BufferPool&) = delete;

    /** Hand out a buffer of exactly `words` words (uninitialized). */
    PoolBuffer acquire(size_t words);

    Stats stats() const;

    /** Zero the cumulative hit/miss/release counters (buckets stay). */
    void resetStats();

    /** Free every idle cached buffer (outstanding handles unaffected). */
    void trim();

    ~BufferPool();

  private:
    BufferPool();

    friend class PoolBuffer;
    void release(std::uint64_t* p, size_t words, size_t slot);

    struct Impl;
    Impl* impl_;
};

} // namespace hydra

#endif // HYDRA_COMMON_POOL_HH

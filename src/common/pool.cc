#include "common/pool.hh"

#include <array>
#include <atomic>
#include <cstdlib>
#include <mutex>
#include <unordered_map>
#include <vector>

#include "common/logging.hh"

namespace hydra {

namespace {

constexpr size_t kAlignment = 64; // one cache line

/**
 * Set while the singleton is alive.  PoolBuffers destroyed during
 * static teardown after the pool itself (e.g. function-local static
 * fixtures in benches) free their memory directly instead of touching
 * a dead bucket map.
 */
bool g_pool_alive = false;

/** The calling thread's bucket slot (see BufferPool::bindThreadSlot). */
thread_local size_t tls_slot = 0;

std::uint64_t*
alignedAlloc(size_t words)
{
    // aligned_alloc requires the size to be a multiple of the alignment.
    size_t bytes = (words * sizeof(std::uint64_t) + kAlignment - 1) /
                   kAlignment * kAlignment;
    void* p = std::aligned_alloc(kAlignment, bytes);
    HYDRA_ASSERT(p != nullptr, "buffer pool allocation failed");
    return static_cast<std::uint64_t*>(p);
}

} // namespace

struct BufferPool::Impl
{
    struct Slot
    {
        std::mutex m;
        /** Idle buffers keyed by exact word count. */
        std::unordered_map<size_t, std::vector<std::uint64_t*>> buckets;
    };
    std::array<Slot, kSlots> slots;

    std::atomic<std::uint64_t> hits{0};
    std::atomic<std::uint64_t> misses{0};
    std::atomic<std::uint64_t> released{0};
    std::atomic<std::uint64_t> outstanding{0};
    std::atomic<std::uint64_t> cached{0};
    std::atomic<std::uint64_t> cachedWords{0};
};

BufferPool::BufferPool() : impl_(new Impl)
{
    g_pool_alive = true;
}

BufferPool::~BufferPool()
{
    g_pool_alive = false;
    for (auto& slot : impl_->slots)
        for (auto& [words, list] : slot.buckets)
            for (std::uint64_t* p : list)
                std::free(p);
    delete impl_;
}

BufferPool&
BufferPool::global()
{
    static BufferPool pool;
    return pool;
}

void
BufferPool::bindThreadSlot(size_t slot)
{
    tls_slot = slot < kSlots ? slot : 0;
}

PoolBuffer
BufferPool::acquire(size_t words)
{
    HYDRA_ASSERT(words > 0, "cannot acquire an empty buffer");
    size_t slot = tls_slot;
    ++impl_->outstanding;
    {
        Impl::Slot& s = impl_->slots[slot];
        std::lock_guard<std::mutex> lock(s.m);
        auto it = s.buckets.find(words);
        if (it != s.buckets.end() && !it->second.empty()) {
            std::uint64_t* p = it->second.back();
            it->second.pop_back();
            ++impl_->hits;
            --impl_->cached;
            impl_->cachedWords -= words;
            return PoolBuffer(p, words, slot);
        }
    }
    ++impl_->misses;
    return PoolBuffer(alignedAlloc(words), words, slot);
}

void
BufferPool::release(std::uint64_t* p, size_t words, size_t slot)
{
    {
        Impl::Slot& s = impl_->slots[slot];
        std::lock_guard<std::mutex> lock(s.m);
        s.buckets[words].push_back(p);
    }
    ++impl_->released;
    --impl_->outstanding;
    ++impl_->cached;
    impl_->cachedWords += words;
}

BufferPool::Stats
BufferPool::stats() const
{
    Stats s;
    s.hits = impl_->hits.load();
    s.misses = impl_->misses.load();
    s.released = impl_->released.load();
    s.outstanding = impl_->outstanding.load();
    s.cached = impl_->cached.load();
    s.cachedWords = impl_->cachedWords.load();
    return s;
}

void
BufferPool::resetStats()
{
    impl_->hits = 0;
    impl_->misses = 0;
    impl_->released = 0;
}

void
BufferPool::trim()
{
    for (auto& slot : impl_->slots) {
        std::lock_guard<std::mutex> lock(slot.m);
        for (auto& [words, list] : slot.buckets) {
            for (std::uint64_t* p : list)
                std::free(p);
            impl_->cached -= list.size();
            impl_->cachedWords -= list.size() * words;
        }
        slot.buckets.clear();
    }
}

void
PoolBuffer::reset()
{
    if (!ptr_)
        return;
    if (g_pool_alive)
        BufferPool::global().release(ptr_, words_, slot_);
    else
        std::free(ptr_);
    ptr_ = nullptr;
    words_ = 0;
}

} // namespace hydra

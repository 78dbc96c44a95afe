/**
 * @file
 * BufferPool unit tests: exact-size bucket reuse, counter bookkeeping,
 * trim, and concurrent acquire/release from ThreadPool workers.  All
 * assertions are written against counter *deltas* because the pool is
 * process-global and other code (RnsPoly, static fixtures) may hold
 * buffers when a test starts.
 */

#include <gtest/gtest.h>

#include <vector>

#include "common/parallel.hh"
#include "common/pool.hh"

namespace hydra {
namespace {

using Stats = BufferPool::Stats;

Stats
delta(const Stats& before)
{
    Stats now = BufferPool::global().stats();
    Stats d;
    d.hits = now.hits - before.hits;
    d.misses = now.misses - before.misses;
    d.released = now.released - before.released;
    d.outstanding = now.outstanding - before.outstanding;
    d.cached = now.cached - before.cached;
    d.cachedWords = now.cachedWords - before.cachedWords;
    return d;
}

TEST(BufferPool, AcquireMissThenReuseHit)
{
    auto& pool = BufferPool::global();
    pool.trim(); // start from empty buckets for this size
    Stats base = pool.stats();

    std::uint64_t* first_ptr = nullptr;
    {
        PoolBuffer b = pool.acquire(1024);
        ASSERT_TRUE(b.valid());
        EXPECT_EQ(b.words(), 1024u);
        first_ptr = b.data();
        // The memory is writable across the whole span.
        for (size_t i = 0; i < 1024; ++i)
            b.data()[i] = i;
        Stats d = delta(base);
        EXPECT_EQ(d.misses, 1u);
        EXPECT_EQ(d.hits, 0u);
        EXPECT_EQ(d.outstanding, 1u);
    }
    // Released back into the 1024-word bucket...
    Stats d = delta(base);
    EXPECT_EQ(d.released, 1u);
    EXPECT_EQ(d.outstanding, 0u);
    EXPECT_EQ(d.cached, 1u);
    EXPECT_EQ(d.cachedWords, 1024u);

    // ...so the next same-size acquire is a hit on the same memory.
    PoolBuffer again = pool.acquire(1024);
    EXPECT_EQ(again.data(), first_ptr);
    EXPECT_EQ(delta(base).hits, 1u);

    // A different size cannot reuse the bucket.
    PoolBuffer other = pool.acquire(2048);
    EXPECT_NE(other.data(), first_ptr);
    EXPECT_EQ(delta(base).misses, 2u);
}

TEST(BufferPool, AlignmentIs64Bytes)
{
    for (size_t words : {1u, 7u, 64u, 1000u}) {
        PoolBuffer b = BufferPool::global().acquire(words);
        EXPECT_EQ(reinterpret_cast<uintptr_t>(b.data()) % 64, 0u)
            << words << " words";
    }
}

TEST(BufferPool, ResetReturnsEarlyAndMoveTransfersOwnership)
{
    auto& pool = BufferPool::global();
    Stats base = pool.stats();

    PoolBuffer a = pool.acquire(512);
    PoolBuffer b = std::move(a);
    EXPECT_FALSE(a.valid());
    EXPECT_TRUE(b.valid());
    EXPECT_EQ(delta(base).outstanding, 1u);

    b.reset();
    EXPECT_FALSE(b.valid());
    Stats d = delta(base);
    EXPECT_EQ(d.outstanding, 0u);
    EXPECT_EQ(d.released, 1u);

    // Double reset and destruction of empty handles are no-ops.
    b.reset();
    EXPECT_EQ(delta(base).released, 1u);
}

TEST(BufferPool, TrimFreesIdleBuffers)
{
    auto& pool = BufferPool::global();
    { PoolBuffer b = pool.acquire(333); }
    { PoolBuffer b = pool.acquire(444); }
    Stats before = pool.stats();
    EXPECT_GE(before.cached, 2u);

    pool.trim();
    Stats after = pool.stats();
    EXPECT_EQ(after.cached, 0u);
    EXPECT_EQ(after.cachedWords, 0u);
    // Outstanding buffers are never touched by trim.
    EXPECT_EQ(after.outstanding, before.outstanding);
}

TEST(BufferPool, CountersBalanceUnderConcurrentChurn)
{
    auto& pool = BufferPool::global();
    size_t saved = ThreadPool::instance().threadCount();
    ThreadPool::instance().setThreadCount(8);
    Stats base = pool.stats();

    constexpr size_t kIters = 2000;
    std::vector<int> ok(kIters, 0);
    parallelFor(0, kIters, [&](size_t i) {
        // Mix of four bucket sizes, checked for torn contents.
        size_t words = 128 << (i % 4);
        PoolBuffer b = pool.acquire(words);
        std::uint64_t tag = 0x9e3779b97f4a7c15ull * (i + 1);
        for (size_t j = 0; j < words; ++j)
            b.data()[j] = tag + j;
        bool good = b.words() == words;
        for (size_t j = 0; j < words; ++j)
            good &= b.data()[j] == tag + j;
        ok[i] = good ? 1 : 0;
    });
    ThreadPool::instance().setThreadCount(saved);

    for (size_t i = 0; i < kIters; ++i)
        ASSERT_EQ(ok[i], 1) << "buffer contents torn at iteration " << i;

    Stats d = delta(base);
    EXPECT_EQ(d.hits + d.misses, kIters);
    EXPECT_EQ(d.released, kIters);
    EXPECT_EQ(d.outstanding, 0u);
    // With only four distinct sizes the buckets must serve the bulk.
    EXPECT_GT(d.hits, d.misses);
}

TEST(BufferPool, TeamTasksNeverMissWhenWarm)
{
    // Tasks on thread teams acquire from their own threads' slots: a
    // team fork whose tasks churn buffers inside nested parallelFor
    // and parallelForOuter calls misses zero times once warm, with
    // even (2 + 2) and uneven (2 + 1, 3 + 3 + 2) teams.
    size_t saved = ThreadPool::instance().threadCount();
    for (size_t threads : {3u, 4u, 8u}) {
        ThreadPool::instance().setThreadCount(threads);
        auto round = [&] {
            parallelForOuter(threads == 8 ? 3 : 2, [&](size_t i) {
                PoolBuffer mine = BufferPool::global().acquire(512 + i);
                parallelForOuter(2, [&](size_t l) {
                    parallelFor(0, 6, [&](size_t j) {
                        PoolBuffer b =
                            BufferPool::global().acquire(64 + 8 * l + j);
                        b.data()[0] = j;
                    });
                });
                mine.data()[0] = i;
            });
        };
        round();
        Stats before = BufferPool::global().stats();
        for (int r = 0; r < 3; ++r)
            round();
        Stats d = delta(before);
        EXPECT_EQ(d.misses, 0u) << threads << " threads";
        EXPECT_GT(d.hits, 0u);
        EXPECT_EQ(d.outstanding, 0u);
    }
    ThreadPool::instance().setThreadCount(saved);
}

TEST(BufferPool, ResetStatsClearsCumulativeCountersOnly)
{
    auto& pool = BufferPool::global();
    PoolBuffer held = pool.acquire(256);
    { PoolBuffer b = pool.acquire(256); } // park one in the bucket

    pool.resetStats();
    Stats s = pool.stats();
    EXPECT_EQ(s.hits, 0u);
    EXPECT_EQ(s.misses, 0u);
    EXPECT_EQ(s.released, 0u);
    // Live-state gauges survive a counter reset.
    EXPECT_GE(s.outstanding, 1u);
    EXPECT_GE(s.cached, 1u);
}

} // namespace
} // namespace hydra

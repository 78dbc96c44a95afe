/**
 * @file
 * Event queue ordering and determinism tests.
 */

#include <gtest/gtest.h>

#include "sim/eventq.hh"

namespace hydra {
namespace {

TEST(EventQueue, FiresInTimeOrder)
{
    EventQueue eq;
    std::vector<int> order;
    eq.schedule(30, [&] { order.push_back(3); });
    eq.schedule(10, [&] { order.push_back(1); });
    eq.schedule(20, [&] { order.push_back(2); });
    eq.run();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(eq.now(), 30u);
}

TEST(EventQueue, SameTickFiresInInsertionOrder)
{
    EventQueue eq;
    std::vector<int> order;
    for (int i = 0; i < 10; ++i)
        eq.schedule(5, [&order, i] { order.push_back(i); });
    eq.run();
    for (int i = 0; i < 10; ++i)
        EXPECT_EQ(order[i], i);
}

TEST(EventQueue, NestedScheduling)
{
    EventQueue eq;
    std::vector<Tick> times;
    eq.schedule(10, [&] {
        times.push_back(eq.now());
        eq.scheduleAfter(5, [&] { times.push_back(eq.now()); });
        eq.scheduleAfter(0, [&] { times.push_back(eq.now()); });
    });
    eq.run();
    EXPECT_EQ(times, (std::vector<Tick>{10, 10, 15}));
}

TEST(EventQueue, ExecutedCountTracks)
{
    EventQueue eq;
    eq.schedule(1, [] {});
    eq.schedule(2, [] {});
    eq.run();
    EXPECT_EQ(eq.executedCount(), 2u);
}

/** Counts copies of itself; moves are free. */
struct CopyCounter
{
    int* copies;

    explicit CopyCounter(int* c) : copies(c) {}
    CopyCounter(const CopyCounter& o) : copies(o.copies) { ++*copies; }
    CopyCounter(CopyCounter&& o) noexcept : copies(o.copies) {}
};

TEST(EventQueue, StepMovesCallbacksWithoutCopying)
{
    EventQueue eq;
    int copies = 0;
    int fired = 0;
    for (int i = 0; i < 8; ++i)
        eq.schedule(static_cast<Tick>(8 - i),
                    [c = CopyCounter(&copies), &fired] { ++fired; });
    eq.run();
    EXPECT_EQ(fired, 8);
    EXPECT_EQ(copies, 0);
}

TEST(EventQueue, TickConversionRoundTrips)
{
    EXPECT_EQ(secondsToTicks(1.0), kTicksPerSecond);
    EXPECT_DOUBLE_EQ(ticksToSeconds(kTicksPerSecond / 2), 0.5);
    EXPECT_NEAR(ticksToSeconds(secondsToTicks(3.14159)), 3.14159, 1e-9);
}

} // namespace
} // namespace hydra

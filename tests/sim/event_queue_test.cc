/**
 * @file
 * Unit tests for the discrete-event queue.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/logging.hh"

namespace {

using deskpar::PanicError;
using deskpar::sim::EventQueue;
using deskpar::sim::SimTime;

TEST(EventQueue, StartsAtTimeZeroAndEmpty)
{
    EventQueue q;
    EXPECT_EQ(q.now(), 0u);
    EXPECT_TRUE(q.empty());
    EXPECT_EQ(q.pendingCount(), 0u);
    EXPECT_FALSE(q.runOne());
}

TEST(EventQueue, RunsEventsInTimeOrder)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(30, [&] { order.push_back(3); });
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
    EXPECT_EQ(q.now(), 30u);
}

TEST(EventQueue, FifoAmongEqualTimestamps)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(5, [&] { order.push_back(1); });
    q.schedule(5, [&] { order.push_back(2); });
    q.schedule(5, [&] { order.push_back(3); });
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{1, 2, 3}));
}

TEST(EventQueue, SchedulingInThePastPanics)
{
    EventQueue q;
    q.schedule(10, [] {});
    q.runAll();
    EXPECT_EQ(q.now(), 10u);
    EXPECT_THROW(q.schedule(5, [] {}), PanicError);
}

TEST(EventQueue, CancelPreventsExecution)
{
    EventQueue q;
    bool ran = false;
    auto handle = q.schedule(10, [&] { ran = true; });
    EXPECT_TRUE(handle.pending());
    q.cancel(handle);
    EXPECT_FALSE(handle.pending());
    EXPECT_EQ(q.pendingCount(), 0u);
    q.runAll();
    EXPECT_FALSE(ran);
}

TEST(EventQueue, CancelAfterFireIsNoop)
{
    EventQueue q;
    int runs = 0;
    auto handle = q.schedule(10, [&] { ++runs; });
    q.runAll();
    EXPECT_EQ(runs, 1);
    EXPECT_FALSE(handle.pending());
    q.cancel(handle); // must not crash or affect anything
    EXPECT_EQ(q.pendingCount(), 0u);
}

TEST(EventQueue, EventsCanScheduleMoreEvents)
{
    EventQueue q;
    std::vector<SimTime> fired;
    q.schedule(10, [&] {
        fired.push_back(q.now());
        q.scheduleAfter(15, [&] { fired.push_back(q.now()); });
    });
    q.runAll();
    ASSERT_EQ(fired.size(), 2u);
    EXPECT_EQ(fired[0], 10u);
    EXPECT_EQ(fired[1], 25u);
}

TEST(EventQueue, RunUntilStopsAtBoundaryAndAdvancesClock)
{
    EventQueue q;
    std::vector<int> order;
    q.schedule(10, [&] { order.push_back(1); });
    q.schedule(20, [&] { order.push_back(2); });
    q.schedule(40, [&] { order.push_back(3); });
    q.runUntil(20);
    EXPECT_EQ(order, (std::vector<int>{1, 2}));
    EXPECT_EQ(q.now(), 20u);
    q.runUntil(30);
    EXPECT_EQ(order.size(), 2u);
    EXPECT_EQ(q.now(), 30u);
    q.runUntil(50);
    EXPECT_EQ(order.size(), 3u);
    EXPECT_EQ(q.now(), 50u);
}

TEST(EventQueue, PendingCountTracksLiveEvents)
{
    EventQueue q;
    auto a = q.schedule(10, [] {});
    q.schedule(20, [] {});
    EXPECT_EQ(q.pendingCount(), 2u);
    q.cancel(a);
    EXPECT_EQ(q.pendingCount(), 1u);
    q.runAll();
    EXPECT_EQ(q.pendingCount(), 0u);
}

TEST(EventQueue, CancelledHeadDoesNotBlockOthers)
{
    EventQueue q;
    bool ran = false;
    auto head = q.schedule(5, [] {});
    q.schedule(10, [&] { ran = true; });
    q.cancel(head);
    q.runAll();
    EXPECT_TRUE(ran);
    EXPECT_EQ(q.now(), 10u);
}

TEST(EventQueue, RecycledNodesInvalidateStaleHandles)
{
    EventQueue q;
    bool ran_b = false;
    auto a = q.schedule(10, [] {});
    auto stale = a; // survives the cancel-reset of `a`
    q.cancel(a);
    // The freed node is recycled for b with a fresh generation; the
    // stale ticket must not alias it.
    auto b = q.schedule(20, [&] { ran_b = true; });
    EXPECT_FALSE(a.pending());
    EXPECT_FALSE(stale.pending());
    EXPECT_TRUE(b.pending());
    q.cancel(stale); // stale ticket: must not cancel b
    EXPECT_TRUE(b.pending());
    q.runAll();
    EXPECT_TRUE(ran_b);
    EXPECT_FALSE(b.pending());
}

TEST(EventQueue, PoolReuseKeepsFifoAndCancellation)
{
    EventQueue q;
    int fired = 0;
    // Churn the freelist: repeated schedule/cancel/fire cycles reuse
    // a tiny node pool.
    for (int round = 0; round < 100; ++round) {
        auto keep = q.scheduleAfter(5, [&] { ++fired; });
        auto drop = q.scheduleAfter(3, [&] { fired += 1000; });
        q.cancel(drop);
        q.runUntil(q.now() + 10);
        EXPECT_FALSE(keep.pending());
    }
    EXPECT_EQ(fired, 100);
    EXPECT_TRUE(q.empty());
}

TEST(EventQueue, RescheduleFollowsFreshSequenceAmongEqualTimes)
{
    EventQueue q;
    std::vector<int> order;
    auto a = q.schedule(5, [&] { order.push_back(1); });
    q.schedule(5, [&] { order.push_back(2); });
    auto c = q.schedule(5, [&] { order.push_back(3); });
    q.schedule(5, [&] { order.push_back(4); });
    // Same time, fresh sequence: a now runs after every event
    // already scheduled for 5, as cancel + schedule would order it.
    q.reschedule(a, 5, [&] { order.push_back(1); });
    // Earlier time: c moves to the front.
    q.reschedule(c, 3, [&] { order.push_back(3); });
    EXPECT_EQ(q.pendingCount(), 4u);
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{3, 2, 4, 1}));
}

TEST(EventQueue, RescheduleMovesPendingEventLater)
{
    EventQueue q;
    std::vector<int> order;
    auto a = q.schedule(5, [&] { order.push_back(1); });
    q.schedule(10, [&] { order.push_back(2); });
    q.reschedule(a, 20, [&] { order.push_back(10); });
    EXPECT_TRUE(a.pending());
    q.runUntil(10);
    EXPECT_EQ(order, (std::vector<int>{2}));
    EXPECT_TRUE(a.pending());
    q.runAll();
    EXPECT_EQ(order, (std::vector<int>{2, 10}));
    EXPECT_EQ(q.now(), 20u);
    EXPECT_FALSE(a.pending());
}

TEST(EventQueue, RescheduleOfFiredHandleSchedulesAnew)
{
    EventQueue q;
    int runs = 0;
    auto handle = q.schedule(5, [&] { ++runs; });
    q.runAll();
    ASSERT_FALSE(handle.pending());
    q.reschedule(handle, 8, [&] { runs += 10; });
    EXPECT_TRUE(handle.pending());
    EXPECT_EQ(q.pendingCount(), 1u);
    q.runAll();
    EXPECT_EQ(runs, 11);
    EXPECT_EQ(q.now(), 8u);
    EXPECT_EQ(q.stats().scheduled, 2u);
    EXPECT_EQ(q.stats().rescheduled, 0u);
}

TEST(EventQueue, RescheduleOfCancelledOrDefaultHandleSchedules)
{
    EventQueue q;
    int runs = 0;
    EventQueue::Handle fresh;
    q.reschedule(fresh, 4, [&] { ++runs; });
    EXPECT_TRUE(fresh.pending());
    auto cancelled = q.schedule(2, [&] { runs += 100; });
    q.cancel(cancelled);
    q.reschedule(cancelled, 6, [&] { ++runs; });
    EXPECT_TRUE(cancelled.pending());
    EXPECT_EQ(q.pendingCount(), 2u);
    q.runAll();
    EXPECT_EQ(runs, 2);
}

TEST(EventQueue, RescheduleInvalidatesCopiesOfTheOldHandle)
{
    EventQueue q;
    bool ran = false;
    auto handle = q.schedule(10, [] {});
    auto stale = handle;
    q.reschedule(handle, 12, [&] { ran = true; });
    EXPECT_TRUE(handle.pending());
    EXPECT_FALSE(stale.pending());
    q.cancel(stale); // old ticket: must not cancel the moved event
    EXPECT_TRUE(handle.pending());
    q.runAll();
    EXPECT_TRUE(ran);
}

TEST(EventQueue, RescheduleIntoThePastPanics)
{
    EventQueue q;
    q.schedule(10, [] {}); // the clock reaches 10
    auto handle = q.schedule(20, [] {});
    q.runOne();
    EXPECT_THROW(q.reschedule(handle, 5, [] {}), PanicError);
    EXPECT_TRUE(handle.pending());
}

TEST(EventQueue, StatsCountEveryOutcome)
{
    EventQueue q;
    auto a = q.schedule(10, [] {});
    auto b = q.schedule(20, [] {});
    q.schedule(30, [] {});
    q.reschedule(a, 25, [] {});
    q.cancel(b);
    q.runOne();
    const EventQueue::Stats &stats = q.stats();
    EXPECT_EQ(stats.scheduled, 3u);
    EXPECT_EQ(stats.rescheduled, 1u);
    EXPECT_EQ(stats.cancelled, 1u);
    EXPECT_EQ(stats.fired, 1u);
    EXPECT_EQ(stats.peakHeap, 3u);
    EXPECT_EQ(stats.scheduled,
              stats.fired + stats.cancelled + q.pendingCount());
}

/**
 * A cancel-and-move workload (the scheduler's pattern) keeps the
 * heap at exactly the pending set: peakHeap never exceeds the
 * largest pendingCount() observed after any call.
 */
TEST(EventQueue, HeapHoldsNoDeadEntries)
{
    EventQueue q;
    std::vector<EventQueue::Handle> handles(16);
    std::size_t maxPending = 0;
    std::uint64_t lcg = 12345;
    auto draw = [&] {
        lcg = lcg * 6364136223846793005ULL + 1442695040888963407ULL;
        return lcg >> 33;
    };
    for (int step = 0; step < 4000; ++step) {
        auto &handle = handles[draw() % handles.size()];
        switch (draw() % 4) {
        case 0:
            q.cancel(handle);
            break;
        case 1:
            q.runOne();
            break;
        default:
            q.reschedule(handle, q.now() + draw() % 40, [] {});
            break;
        }
        maxPending = std::max(maxPending, q.pendingCount());
        const EventQueue::Stats &stats = q.stats();
        ASSERT_EQ(stats.scheduled,
                  stats.fired + stats.cancelled + q.pendingCount());
    }
    EXPECT_EQ(q.stats().peakHeap, maxPending);
    EXPECT_LE(maxPending, handles.size());
    EXPECT_GT(q.stats().rescheduled, 0u);
}

TEST(EventQueue, ManyEventsStressOrdering)
{
    EventQueue q;
    SimTime last = 0;
    bool monotonic = true;
    for (int i = 0; i < 1000; ++i) {
        SimTime when = static_cast<SimTime>((i * 7919) % 1000);
        q.schedule(when, [&, when] {
            if (when < last)
                monotonic = false;
            last = when;
        });
    }
    q.runAll();
    EXPECT_TRUE(monotonic);
}

} // namespace

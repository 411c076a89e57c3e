/**
 * @file
 * Randomized differential test: the 4-ary implicit-heap EventQueue
 * against the preserved binary-heap reference implementation
 * (tests/reference/event_queue_legacy.hh).
 *
 * Both queues execute the same randomized scripts — schedules with
 * deliberately colliding timestamps, cancellations, in-place
 * reschedules, re-arming from inside callbacks, and interleaved
 * runOne/runUntil — and must agree on every observable: execution
 * order (including FIFO among equal timestamps), the clock at each
 * step, handle liveness, and pending counts. The reference has no
 * reschedule(); it runs the cancel + schedule pair that
 * EventQueue::reschedule must be indistinguishable from. The
 * scripts are seeded, so a failure reproduces exactly.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <type_traits>
#include <vector>

#include "reference/event_queue_legacy.hh"
#include "sim/event_queue.hh"
#include "sim/rng.hh"

namespace {

using deskpar::sim::EventQueue;
using deskpar::sim::Rng;
using deskpar::sim::SimTime;
using LegacyQueue = deskpar::sim::legacy::EventQueue;

/**
 * One queue under script control. The event payload appends its id
 * to the execution log and, while the script says so, re-arms itself
 * with the next scripted delay — both queues consume the same
 * pre-drawn script, never a live RNG, so their executions cannot
 * drift even if one is buggy.
 */
template <typename Queue>
struct Scripted
{
    Queue queue;
    std::vector<typename Queue::Handle> handles;
    std::vector<std::uint32_t> log;
    /** Largest pendingCount() seen after any call. */
    std::size_t maxPending = 0;

    void
    schedule(std::uint32_t id, SimTime when)
    {
        if (handles.size() <= id)
            handles.resize(id + 1);
        handles[id] = queue.schedule(
            when, [this, id] { log.push_back(id); });
        observe();
    }

    /** In place on EventQueue; cancel + schedule on the reference. */
    void
    reschedule(std::uint32_t id, SimTime when)
    {
        if (handles.size() <= id)
            handles.resize(id + 1);
        auto cb = [this, id] { log.push_back(id); };
        if constexpr (std::is_same_v<Queue, EventQueue>) {
            queue.reschedule(handles[id], when, cb);
        } else {
            queue.cancel(handles[id]);
            handles[id] = queue.schedule(when, cb);
        }
        observe();
    }

    void
    cancel(std::uint32_t id)
    {
        queue.cancel(handles[id]);
        observe();
    }

    bool
    runOne()
    {
        bool ran = queue.runOne();
        observe();
        return ran;
    }

    void
    runUntil(SimTime until)
    {
        queue.runUntil(until);
        observe();
    }

    void
    observe()
    {
        maxPending = std::max(maxPending, queue.pendingCount());
    }
};

/** Every observable of the two queues, compared after each call. */
void
expectSame(Scripted<LegacyQueue> &a, Scripted<EventQueue> &b,
           std::uint64_t seed)
{
    ASSERT_EQ(a.queue.now(), b.queue.now()) << "seed " << seed;
    ASSERT_EQ(a.queue.pendingCount(), b.queue.pendingCount())
        << "seed " << seed;
    ASSERT_EQ(a.log, b.log) << "seed " << seed;
    ASSERT_EQ(a.handles.size(), b.handles.size()) << "seed " << seed;
    for (std::size_t id = 0; id < a.handles.size(); ++id) {
        ASSERT_EQ(a.handles[id].pending(), b.handles[id].pending())
            << "seed " << seed << " id " << id;
    }
}

/** Drive both queues through one seeded script and compare. */
void
runScript(std::uint64_t seed)
{
    Rng rng(seed);
    Scripted<LegacyQueue> a;
    Scripted<EventQueue> b;

    std::uint32_t nextId = 0;
    // Interleave phases: a burst of schedules (small time range, so
    // equal timestamps are common), a round of cancellations, a round
    // of reschedules, then a partial drain via runOne or runUntil.
    for (int phase = 0; phase < 40; ++phase) {
        std::uint32_t burst = 1 + rng.raw() % 24;
        for (std::uint32_t i = 0; i < burst; ++i) {
            SimTime when =
                a.queue.now() + 1 + rng.raw() % 12;
            std::uint32_t id = nextId++;
            a.schedule(id, when);
            b.schedule(id, when);
            ASSERT_NO_FATAL_FAILURE(expectSame(a, b, seed));
        }

        std::uint32_t cancels = rng.raw() % 6;
        for (std::uint32_t i = 0; i < cancels; ++i) {
            std::uint32_t victim = rng.raw() % nextId;
            a.cancel(victim);
            b.cancel(victim);
            ASSERT_NO_FATAL_FAILURE(expectSame(a, b, seed));
        }

        // Victims are pending, fired or cancelled ids, or a fresh id
        // whose handle is still default. Targets run from now() (an
        // earlier slot than most pending events) past the burst's
        // range (later), and the narrow range makes landing on
        // another event's timestamp common, so the fresh-sequence
        // FIFO rule is exercised.
        std::uint32_t moves = rng.raw() % 8;
        for (std::uint32_t i = 0; i < moves; ++i) {
            std::uint32_t victim = rng.raw() % (nextId + 1);
            if (victim == nextId)
                ++nextId;
            SimTime when = a.queue.now() + rng.raw() % 16;
            a.reschedule(victim, when);
            b.reschedule(victim, when);
            ASSERT_NO_FATAL_FAILURE(expectSame(a, b, seed));
        }

        if (rng.raw() & 1) {
            std::uint32_t steps = 1 + rng.raw() % 8;
            for (std::uint32_t i = 0; i < steps; ++i) {
                ASSERT_EQ(a.runOne(), b.runOne()) << "seed " << seed;
                ASSERT_NO_FATAL_FAILURE(expectSame(a, b, seed));
            }
        } else {
            SimTime until = a.queue.now() + rng.raw() % 20;
            a.runUntil(until);
            b.runUntil(until);
            ASSERT_NO_FATAL_FAILURE(expectSame(a, b, seed));
        }
    }

    a.queue.runAll();
    b.queue.runAll();
    EXPECT_EQ(a.queue.now(), b.queue.now()) << "seed " << seed;
    EXPECT_EQ(a.log, b.log) << "seed " << seed;
    EXPECT_TRUE(b.queue.empty());

    // Every event scheduled ended fired or cancelled, and the heap
    // never outgrew the pending set: with lazy cancellation, dead
    // entries would push the high-water mark past it.
    const EventQueue::Stats &stats = b.queue.stats();
    EXPECT_EQ(stats.scheduled,
              stats.fired + stats.cancelled + b.queue.pendingCount())
        << "seed " << seed;
    EXPECT_EQ(stats.peakHeap, b.maxPending) << "seed " << seed;
    EXPECT_GT(stats.rescheduled, 0u) << "seed " << seed;
}

TEST(EventQueueDiff, RandomScriptsMatchLegacyQueue)
{
    for (std::uint64_t seed = 1; seed <= 50; ++seed)
        runScript(seed);
}

/**
 * Reschedule-from-callback churn: every fired event re-arms itself
 * until a budget runs out, plus a cancel-and-rearm trickle — the
 * steady-state pattern of the simulator, and the shape that
 * exercises node reuse (a recycled node must invalidate stale
 * handles and stale heap entries).
 */
template <typename Queue, bool InPlace = false>
struct Churner
{
    Queue queue;
    std::vector<typename Queue::Handle> handles;
    std::vector<std::uint32_t> log;
    std::uint64_t lcg;
    std::uint32_t armed = 0;
    std::uint32_t target = 0;

    std::uint64_t
    draw()
    {
        lcg = lcg * 6364136223846793005ULL +
              1442695040888963407ULL;
        return lcg >> 33;
    }

    auto
    callback(std::uint32_t slot)
    {
        return [this, slot] { fire(slot); };
    }

    void
    arm(std::uint32_t slot)
    {
        ++armed;
        handles[slot] =
            queue.scheduleAfter(1 + draw() % 50, callback(slot));
    }

    /** Move a pending event: in place, or by cancel + arm. */
    void
    rearm(std::uint32_t slot)
    {
        if constexpr (InPlace) {
            ++armed;
            queue.reschedule(handles[slot],
                             queue.now() + 1 + draw() % 50,
                             callback(slot));
        } else {
            queue.cancel(handles[slot]);
            arm(slot);
        }
    }

    void
    fire(std::uint32_t slot)
    {
        log.push_back(slot);
        if (armed < target)
            arm(slot);
        if (draw() % 7 == 0 && armed < target) {
            auto victim =
                static_cast<std::uint32_t>(draw() % handles.size());
            if (handles[victim].pending())
                rearm(victim);
        }
    }

    void
    run(std::uint32_t population, std::uint32_t total,
        std::uint64_t seed)
    {
        lcg = seed | 1;
        handles.resize(population);
        target = total;
        for (std::uint32_t slot = 0; slot < population; ++slot)
            arm(slot);
        queue.runAll();
    }
};

TEST(EventQueueDiff, RescheduleChurnMatchesLegacyQueue)
{
    for (std::uint64_t seed : {7ULL, 99ULL, 123456789ULL}) {
        Churner<LegacyQueue> a;
        Churner<EventQueue> b;
        a.run(64, 5000, seed);
        b.run(64, 5000, seed);
        ASSERT_EQ(a.queue.now(), b.queue.now()) << "seed " << seed;
        ASSERT_EQ(a.log, b.log) << "seed " << seed;
    }
}

/**
 * The same churn with the re-arm trickle done by reschedule(),
 * always from inside a callback and sometimes on the slot that
 * callback just re-armed, against cancel + schedule.
 */
TEST(EventQueueDiff, InPlaceRescheduleChurnMatchesLegacyQueue)
{
    for (std::uint64_t seed : {7ULL, 99ULL, 123456789ULL}) {
        Churner<LegacyQueue> a;
        Churner<EventQueue, true> b;
        a.run(64, 5000, seed);
        b.run(64, 5000, seed);
        ASSERT_EQ(a.queue.now(), b.queue.now()) << "seed " << seed;
        ASSERT_EQ(a.log, b.log) << "seed " << seed;
        const EventQueue::Stats &stats = b.queue.stats();
        EXPECT_GT(stats.rescheduled, 0u);
        EXPECT_EQ(stats.cancelled, 0u);
        EXPECT_EQ(stats.scheduled, stats.fired);
        EXPECT_EQ(stats.peakHeap, 64u) << "seed " << seed;
    }
}

/** reserve() must not perturb behavior, only pre-size the pool. */
TEST(EventQueueDiff, ReserveDoesNotChangeOrder)
{
    Churner<EventQueue> plain;
    Churner<EventQueue> reserved;
    reserved.queue.reserve(512);
    plain.run(64, 5000, 42);
    reserved.run(64, 5000, 42);
    EXPECT_EQ(plain.log, reserved.log);
    EXPECT_EQ(plain.queue.now(), reserved.queue.now());
}

} // namespace

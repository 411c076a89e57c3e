/**
 * @file
 * Unit tests for the observability layer: span nesting and thread
 * attribution, counter totals, ring-overflow accounting, and the
 * runtime-disabled cost contract (records nothing, allocates
 * nothing).
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <cstring>
#include <new>
#include <sstream>
#include <thread>

#include "obs/obs.hh"

// Counting global allocator: the disabled-mode guard asserts spans
// and counters touch the heap exactly zero times. Overriding
// operator new here affects only this test binary.
namespace {
std::atomic<std::uint64_t> g_allocations{0};
} // namespace

void *
operator new(std::size_t size)
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    if (void *p = std::malloc(size ? size : 1))
        return p;
    throw std::bad_alloc();
}

void *
operator new[](std::size_t size)
{
    return operator new(size);
}

// The nothrow forms too (std::stable_sort's temporary buffer comes
// from one): otherwise the library's versions allocate what the
// replaced operator delete frees, a mismatch under ASan.
void *
operator new(std::size_t size, const std::nothrow_t &) noexcept
{
    g_allocations.fetch_add(1, std::memory_order_relaxed);
    return std::malloc(size ? size : 1);
}

void *
operator new[](std::size_t size, const std::nothrow_t &tag) noexcept
{
    return operator new(size, tag);
}

void
operator delete(void *p) noexcept
{
    std::free(p);
}

void
operator delete(void *p, std::size_t) noexcept
{
    std::free(p);
}

void
operator delete[](void *p) noexcept
{
    std::free(p);
}

void
operator delete[](void *p, std::size_t) noexcept
{
    std::free(p);
}

namespace {

using namespace deskpar;

TEST(ObsDisabled, RecordsNothing)
{
    obs::setEnabled(false);
    obs::reset();
    {
        obs::Span span("obs.test.off", obs::SpanKind::Other, 1);
        obs::counterAdd("obs.test.off.counter", 1);
    }
    obs::Snapshot snapshot = obs::collect();
    EXPECT_TRUE(snapshot.spans.empty());
    EXPECT_TRUE(snapshot.counters.empty());
}

TEST(ObsDisabled, SpansAndCountersDoNotAllocate)
{
    obs::setEnabled(false);
    obs::reset();
    std::uint64_t before =
        g_allocations.load(std::memory_order_relaxed);
    for (int i = 0; i < 1024; ++i) {
        obs::Span span("obs.test.alloc", obs::SpanKind::Other,
                       static_cast<std::uint64_t>(i));
        obs::counterAdd("obs.test.alloc.counter", 1);
    }
    std::uint64_t after =
        g_allocations.load(std::memory_order_relaxed);
    EXPECT_EQ(before, after);
}

#if !defined(DESKPAR_OBS_DISABLED)

/** Balanced enable + fresh-slate scope for one recording test. */
struct Recording
{
    Recording()
    {
        obs::setEnabled(true);
        obs::reset();
    }
    ~Recording() { obs::setEnabled(false); }
};

TEST(Obs, NestedSpansRecordDepthAndBounds)
{
    Recording recording;
    {
        obs::Span outer("obs.test.outer", obs::SpanKind::Job, 11);
        obs::Span inner("obs.test.inner", obs::SpanKind::Ingest, 22);
    }
    obs::setEnabled(false);
    obs::Snapshot snapshot = obs::collect();

    ASSERT_EQ(snapshot.spans.size(), 2u);
    // collect() orders by (start, thread, depth), so the outer span
    // comes first even when the clock ties.
    const obs::SpanRecord &outer = snapshot.spans[0];
    const obs::SpanRecord &inner = snapshot.spans[1];
    EXPECT_STREQ(outer.name, "obs.test.outer");
    EXPECT_STREQ(inner.name, "obs.test.inner");
    EXPECT_EQ(outer.depth, 0u);
    EXPECT_EQ(inner.depth, 1u);
    EXPECT_EQ(outer.kind, obs::SpanKind::Job);
    EXPECT_EQ(inner.kind, obs::SpanKind::Ingest);
    EXPECT_EQ(outer.arg, 11u);
    EXPECT_EQ(inner.arg, 22u);
    EXPECT_EQ(outer.thread, inner.thread);
    EXPECT_LE(outer.startNs, inner.startNs);
    EXPECT_GE(outer.endNs, inner.endNs);
}

TEST(Obs, SpansAttributeToTheirThread)
{
    Recording recording;
    {
        obs::Span mainSpan("obs.test.main", obs::SpanKind::Other);
        std::thread worker([] {
            obs::Span span("obs.test.worker", obs::SpanKind::Other);
        });
        worker.join();
    }
    obs::setEnabled(false);
    obs::Snapshot snapshot = obs::collect();

    ASSERT_EQ(snapshot.spans.size(), 2u);
    const obs::SpanRecord *mainRecord = nullptr;
    const obs::SpanRecord *workerRecord = nullptr;
    for (const obs::SpanRecord &span : snapshot.spans) {
        if (!std::strcmp(span.name, "obs.test.main"))
            mainRecord = &span;
        else if (!std::strcmp(span.name, "obs.test.worker"))
            workerRecord = &span;
    }
    ASSERT_NE(mainRecord, nullptr);
    ASSERT_NE(workerRecord, nullptr);
    EXPECT_NE(mainRecord->thread, workerRecord->thread);
    EXPECT_EQ(workerRecord->depth, 0u);
    EXPECT_GE(snapshot.threads, 2u);
}

TEST(Obs, CounterTotalsMergeAcrossThreads)
{
    Recording recording;
    obs::counterAdd("obs.test.shared", 5);
    std::thread worker([] { obs::counterAdd("obs.test.shared", 7); });
    worker.join();
    obs::setEnabled(false);
    obs::Snapshot snapshot = obs::collect();

    const obs::CounterTotal *total = nullptr;
    for (const obs::CounterTotal &counter : snapshot.counters) {
        if (!std::strcmp(counter.name, "obs.test.shared"))
            total = &counter;
    }
    ASSERT_NE(total, nullptr);
    EXPECT_EQ(total->total, 12);
}

TEST(Obs, FullRingDropsInsteadOfBlocking)
{
    obs::setRingCapacity(8);
    Recording recording;
    // Flood well past any capacity a recycled slot may carry (the
    // default is 65536): whichever ring the worker lands on fills,
    // and the excess is counted, not stored and not blocked on.
    std::thread worker([] {
        for (int i = 0; i < 80000; ++i)
            obs::Span span("obs.test.flood", obs::SpanKind::Other);
    });
    worker.join();
    obs::setEnabled(false);
    obs::Snapshot snapshot = obs::collect();
    obs::setRingCapacity(1 << 16);

    EXPECT_GT(snapshot.droppedSpans, 0u);
    EXPECT_FALSE(snapshot.spans.empty());
    EXPECT_LT(snapshot.spans.size(), 80000u);
}

TEST(Obs, ResetDiscardsPendingRecords)
{
    Recording recording;
    {
        obs::Span span("obs.test.reset", obs::SpanKind::Other);
    }
    obs::counterAdd("obs.test.reset.counter", 3);
    obs::reset();
    obs::setEnabled(false);
    obs::Snapshot snapshot = obs::collect();

    for (const obs::SpanRecord &span : snapshot.spans)
        EXPECT_STRNE(span.name, "obs.test.reset");
    for (const obs::CounterTotal &counter : snapshot.counters)
        EXPECT_STRNE(counter.name, "obs.test.reset.counter");
}

TEST(Obs, AggregateGroupsByNameContent)
{
    Recording recording;
    {
        obs::Span first("obs.test.agg", obs::SpanKind::Query, 1);
    }
    {
        obs::Span second("obs.test.agg", obs::SpanKind::Query, 2);
    }
    obs::setEnabled(false);
    obs::Snapshot snapshot = obs::collect();

    std::vector<obs::SpanStat> stats = obs::aggregate(snapshot);
    ASSERT_EQ(stats.size(), 1u);
    EXPECT_EQ(stats[0].count, 2u);
    EXPECT_EQ(stats[0].kind, obs::SpanKind::Query);
    EXPECT_EQ(stats[0].threads, 1u);
    EXPECT_GE(stats[0].maxNs, stats[0].minNs);
    EXPECT_EQ(stats[0].totalNs, snapshot.spans[0].durationNs() +
                                    snapshot.spans[1].durationNs());

    std::ostringstream out;
    obs::writeStatsJson(out, snapshot);
    EXPECT_NE(out.str().find("\"obs.test.agg\""), std::string::npos);
    EXPECT_NE(out.str().find("\"kind\":\"query\""),
              std::string::npos);
}

#endif // !DESKPAR_OBS_DISABLED

} // namespace

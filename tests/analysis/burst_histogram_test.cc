/**
 * @file
 * The checkpointed duration histogram (detail::burstHistogram)
 * against the per-burst clamp loop.
 *
 * The planner answers a dhist row from the burst columns' checkpoint
 * rows: bursts wholly inside the window come from row differences
 * plus partial strides, and only the candidates straddling an edge
 * are clamped one by one. The oracle here clamps every burst of the
 * column and buckets what is left. Bundles carry well over ten
 * strides of bursts, equal begins across CPUs and one burst that
 * spans most of the trace; windows cover the whole trace, the inside
 * of the long burst, both edges straddled, edges exactly on
 * checkpoint rows, windows reaching past stopTime, and windows whose
 * interior is empty. Rows must be equal, at 1, 2 and 7 threads, and
 * equal to the straight-line reference (legacy::runQueries).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/concurrency_timeline.hh"
#include "analysis/query.hh"
#include "analysis/session.hh"
#include "analysis/trace_index.hh"
#include "reference/analysis_legacy.hh"

namespace {

using namespace deskpar;
using namespace deskpar::analysis;
using sim::SimTime;
using trace::CSwitchEvent;
using trace::TraceBundle;

constexpr std::size_t kStride = detail::ConcurrencyTimeline::kStride;

/** Deterministic LCG so failures reproduce across runs and machines. */
struct Rng
{
    std::uint64_t state;

    explicit Rng(std::uint64_t seed) : state(seed * 2654435761ull + 1) {}

    std::uint64_t
    next()
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    }

    std::uint64_t below(std::uint64_t n) { return n ? next() % n : 0; }
};

constexpr SimTime kStop = 8'000'000;
/** The long burst: CPU 3 runs the target from here to stopTime. */
constexpr SimTime kLongBegin = 1'500;

/**
 * Target pid 5 alternates with pid 7 (or idle) on CPUs 0-2. Bursts
 * begin on 1 µs boundaries, so begins tie across CPUs; lengths span
 * many log2 buckets. CPU 3 holds one burst from kLongBegin to the
 * end of the trace.
 */
TraceBundle
burstBundle(std::uint64_t seed)
{
    Rng rng(seed);
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = kStop;
    bundle.numLogicalCpus = 4;
    bundle.processNames = {{5, "target"}, {7, "other"}};

    auto cswitch = [&](SimTime ts, unsigned cpu, trace::Pid pid) {
        CSwitchEvent e;
        e.timestamp = ts;
        e.cpu = cpu;
        e.newPid = pid;
        e.newTid = pid * 10;
        e.readyTime = ts;
        bundle.cswitches.push_back(e);
    };
    for (unsigned cpu = 0; cpu < 3; ++cpu) {
        SimTime t = 1'000 * (1 + rng.below(4));
        while (t < kStop - 200'000) {
            cswitch(t, cpu, 5);
            SimTime len = (1 + rng.below(7)) << rng.below(15);
            t += len;
            cswitch(t, cpu, rng.below(2) ? 7 : 0);
            t = (t + rng.below(30'000)) / 1'000 * 1'000 + 1'000;
        }
    }
    cswitch(kLongBegin, 3, 5);
    std::stable_sort(bundle.cswitches.begin(), bundle.cswitches.end(),
                     [](const CSwitchEvent &a, const CSwitchEvent &b) {
                         return a.timestamp < b.timestamp;
                     });
    return bundle;
}

/** The oracle: clamp every burst and bucket what is left. */
std::uint64_t
clampLoopHistogram(const detail::BurstColumns &columns, SimTime t0,
                   SimTime t1, std::vector<std::uint64_t> &histogram)
{
    histogram.assign(kDurationHistogramBuckets, 0);
    std::uint64_t count = 0;
    for (const Interval &burst : columns.bursts) {
        Interval iv = burst.clampTo(t0, t1);
        if (iv.empty())
            continue;
        ++count;
        ++histogram[detail::durationHistogramBucket(iv.length())];
    }
    return count;
}

/** The windows the tests sweep, derived from the burst columns. */
std::vector<std::pair<SimTime, SimTime>>
windowsFor(const detail::BurstColumns &columns)
{
    const std::vector<Interval> &bursts = columns.bursts;
    const std::size_t n = bursts.size();
    std::vector<std::pair<SimTime, SimTime>> windows = {
        {0, kStop},                       // the whole trace
        {kLongBegin + 10, kStop - 10},    // inside the long burst
        {kLongBegin, kStop},              // long burst exactly
        {kStop / 2, kStop + 5'000'000},   // reaching past stopTime
        {kStop + 10, kStop + 20},         // past every burst
    };
    // Straddling both ends: edges in the middle of bursts.
    for (std::size_t i : {n / 5, n / 3, n / 2}) {
        const Interval &a = bursts[i];
        const Interval &b = bursts[std::min(n - 1, i + 3 * kStride)];
        windows.emplace_back(a.begin + (a.end - a.begin) / 2,
                             b.begin + (b.end - b.begin) / 2 + 1);
    }
    // Edges exactly on checkpoint rows: t0 at a row's first begin,
    // t1 at the running max end just before a later row, and one
    // nanosecond either side of both.
    for (std::size_t row = 1; row + 2 < n / kStride; row += 3) {
        SimTime t0 = bursts[row * kStride].begin;
        SimTime t1 = columns.maxEnd[(row + 2) * kStride - 1];
        for (SimTime d0 : {SimTime{0}, SimTime{1}}) {
            for (SimTime d1 : {SimTime{0}, SimTime{1}}) {
                windows.emplace_back(t0 - d0, t1 + d1);
                windows.emplace_back(t0 + d0, t1 - d1);
            }
        }
    }
    // Empty interiors: windows inside one short burst.
    for (std::size_t i : {n / 4, n / 2, 3 * n / 4}) {
        const Interval &b = bursts[i];
        if (b.length() >= 3)
            windows.emplace_back(b.begin + 1, b.end - 1);
        windows.emplace_back(b.begin, b.begin + 1);
    }
    // Random windows of every width.
    Rng rng(n);
    for (int i = 0; i < 200; ++i) {
        SimTime a = rng.below(kStop + kStop / 8);
        SimTime b = a + 1 + rng.below(kStop >> rng.below(16));
        windows.emplace_back(a, b);
    }
    return windows;
}

detail::TimelineSpec
targetSpec()
{
    detail::TimelineSpec spec;
    spec.pids = {5};
    return spec;
}

TEST(BurstHistogram, CheckpointedRowsMatchClampLoop)
{
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        TraceBundle bundle = burstBundle(seed);
        Session session(bundle);
        const detail::BurstColumns &columns =
            session.index()
                .filterColumns(targetSpec(), TraceIndex::kBursts)
                .bursts;
        ASSERT_GE(columns.bursts.size(), 10 * kStride);
        EXPECT_EQ(columns.bucketCum.size(),
                  (columns.bursts.size() / kStride + 1) *
                      kDurationHistogramBuckets);

        bool tiedBegins = false;
        for (std::size_t i = 1; i < columns.bursts.size(); ++i)
            tiedBegins = tiedBegins || columns.bursts[i].begin ==
                                           columns.bursts[i - 1].begin;
        EXPECT_TRUE(tiedBegins);

        std::vector<std::uint64_t> want;
        for (const auto &[t0, t1] : windowsFor(columns)) {
            SCOPED_TRACE("window [" + std::to_string(t0) + ", " +
                         std::to_string(t1) + ")");
            std::uint64_t wantCount =
                clampLoopHistogram(columns, t0, t1, want);
            std::vector<std::uint64_t> got(kDurationHistogramBuckets,
                                           0);
            std::uint64_t gotCount =
                detail::burstHistogram(columns, t0, t1, got.data());
            EXPECT_EQ(gotCount, wantCount);
            EXPECT_EQ(got, want);
        }
    }
}

TEST(BurstHistogram, PlannedRowsMatchOracleAtEveryThreadCount)
{
    for (std::uint64_t seed = 0; seed < 2; ++seed) {
        TraceBundle bundle = burstBundle(seed);
        Session probe(bundle);
        const detail::BurstColumns &columns =
            probe.index()
                .filterColumns(targetSpec(), TraceIndex::kBursts)
                .bursts;

        std::vector<Query> batch;
        for (const auto &[t0, t1] : windowsFor(columns)) {
            Query q;
            q.metric = QueryMetric::DurationHistogram;
            q.filter.pids = {5};
            q.filter.t0 = t0;
            q.filter.t1 = t1;
            batch.push_back(q);
        }
        Query buckets;
        buckets.metric = QueryMetric::DurationHistogram;
        buckets.filter.pids = {5};
        buckets.groupBy = QueryGroupBy::TimeBucket;
        buckets.bucket = kStop / 97;
        batch.push_back(buckets);

        std::vector<QueryResult> reference =
            legacy::runQueries(bundle, batch);
        for (unsigned threads : {1u, 2u, 7u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                         std::to_string(threads));
            Session session(bundle);
            std::vector<QueryResult> got =
                session.query(batch, threads);
            ASSERT_EQ(got.size(), batch.size());
            std::vector<std::uint64_t> want;
            for (std::size_t q = 0; q < got.size(); ++q) {
                ASSERT_EQ(got[q].rows.size(), reference[q].rows.size());
                for (std::size_t r = 0; r < got[q].rows.size(); ++r) {
                    const QueryRow &row = got[q].rows[r];
                    std::uint64_t count = clampLoopHistogram(
                        columns, row.t0, row.t1, want);
                    EXPECT_EQ(row.value, static_cast<double>(count));
                    EXPECT_EQ(row.histogram, want);
                    EXPECT_EQ(row.value, reference[q].rows[r].value);
                    EXPECT_EQ(row.histogram,
                              reference[q].rows[r].histogram);
                }
            }
        }
    }
}

} // namespace

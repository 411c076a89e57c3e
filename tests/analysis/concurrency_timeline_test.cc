/**
 * @file
 * The fused timeline builder against an always-sorting reference.
 *
 * buildConcurrencyTimeline takes an ordered cswitch stream, the form
 * every decoder leaves (trace::canonicalize), and sorts none of its
 * columns: on an ordered stream they were pushed in order. These
 * tests pin that on streams dense with equal-timestamp ties, where an
 * unstable canonical sort would reorder equal-end wait rows:
 * dispatches, waits.{begin,end,minBegin} and the level function must
 * equal the reference on ordered streams and on shuffled streams once
 * canonicalized. A shuffled stream that skipped canonicalization is
 * refused with a panic.
 *
 * The ConcurrencyCursor tests check every window the cursor answers
 * against the direct reference sweep (sweepConcurrency), bit for bit,
 * over walks that keep it moving forward and walks that reseed it.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <bit>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/concurrency_timeline.hh"
#include "reference/analysis_legacy.hh"
#include "sim/logging.hh"
#include "trace/merge.hh"

namespace {

using namespace deskpar;
using namespace deskpar::analysis;
using sim::SimTime;
using trace::CSwitchEvent;
using trace::TraceBundle;

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

/**
 * A stream where most timestamps repeat (steps of 0-2 ns) and ready
 * times vary within a tie, so equal-end wait rows carry different
 * begins.
 */
TraceBundle
tiedBundle(std::uint64_t seed, bool shuffle)
{
    Rng rng(seed);
    TraceBundle bundle;
    bundle.numLogicalCpus = 4;
    bundle.startTime = 0;
    static const trace::Pid kPids[] = {0, 5, 6, 7};
    SimTime t = 1000;
    for (unsigned i = 0; i < 600; ++i) {
        t += rng.below(3);
        CSwitchEvent e;
        e.timestamp = t;
        e.cpu = static_cast<trace::CpuId>(rng.below(4));
        e.oldPid = kPids[rng.below(4)];
        e.oldTid = e.oldPid * 10;
        e.newPid = kPids[rng.below(4)];
        e.newTid = e.newPid * 10 + static_cast<trace::Tid>(rng.below(2));
        e.readyTime = t - rng.below(900);
        bundle.cswitches.push_back(e);
    }
    bundle.stopTime = t + 10;
    if (shuffle) {
        for (std::size_t i = bundle.cswitches.size(); i > 1; --i)
            std::swap(bundle.cswitches[i - 1],
                      bundle.cswitches[rng.below(i)]);
    }
    return bundle;
}

struct Reference
{
    std::vector<SimTime> dispatches;
    detail::WaitColumns waits;
    std::vector<SimTime> times;
    std::vector<int> levels;
};

/**
 * The builder's contract computed the plain way: every column sorted
 * unconditionally (the wait rows stably by end), the level function
 * from stably sorted occupancy deltas.
 */
Reference
reference(const TraceBundle &bundle, const detail::TimelineSpec &spec)
{
    Reference ref;
    const unsigned cutoff = bundle.numLogicalCpus;
    std::vector<std::pair<SimTime, SimTime>> rows;
    std::vector<std::pair<SimTime, int>> deltas;
    std::vector<std::uint8_t> busy(cutoff, 0);
    for (const CSwitchEvent &e : bundle.cswitches) {
        bool target = detail::isTargetSwitch(spec, e.newPid, e.newTid);
        if (target) {
            ref.dispatches.push_back(e.timestamp);
            rows.emplace_back(e.timestamp,
                              std::min(e.readyTime, e.timestamp));
        }
        if (e.cpu >= cutoff)
            continue;
        std::uint8_t now = target ? 1 : 0;
        if (busy[e.cpu] != now) {
            deltas.emplace_back(e.timestamp, now ? 1 : -1);
            busy[e.cpu] = now;
        }
    }
    std::sort(ref.dispatches.begin(), ref.dispatches.end());
    std::stable_sort(rows.begin(), rows.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    for (const auto &[end, begin] : rows) {
        ref.waits.end.push_back(end);
        ref.waits.begin.push_back(begin);
    }
    ref.waits.minBegin.resize(rows.size());
    for (std::size_t i = rows.size(); i-- > 0;) {
        ref.waits.minBegin[i] =
            i + 1 == rows.size()
                ? rows[i].second
                : std::min(ref.waits.minBegin[i + 1], rows[i].second);
    }
    std::stable_sort(deltas.begin(), deltas.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });
    long long level = 0;
    for (std::size_t i = 0; i < deltas.size();) {
        SimTime ts = deltas[i].first;
        long long sum = 0;
        for (; i < deltas.size() && deltas[i].first == ts; ++i)
            sum += deltas[i].second;
        if (sum == 0)
            continue;
        level += sum;
        ref.times.push_back(ts);
        ref.levels.push_back(static_cast<int>(level));
    }
    return ref;
}

void
expectMatchesReference(const TraceBundle &bundle)
{
    detail::TimelineSpec all;
    detail::TimelineSpec one;
    one.pids = {5};
    detail::TimelineSpec thread;
    thread.pids = {6};
    thread.hasTid = true;
    thread.tid = 61;
    for (const detail::TimelineSpec &spec : {all, one, thread}) {
        detail::ConcurrencyTimeline tl;
        std::vector<SimTime> dispatches;
        detail::WaitColumns waits;
        detail::buildConcurrencyTimeline(bundle, spec, tl, &dispatches,
                                         nullptr, &waits);
        Reference ref = reference(bundle, spec);
        ASSERT_FALSE(ref.dispatches.empty());
        EXPECT_EQ(dispatches, ref.dispatches);
        EXPECT_EQ(waits.begin, ref.waits.begin);
        EXPECT_EQ(waits.end, ref.waits.end);
        EXPECT_EQ(waits.minBegin, ref.waits.minBegin);
        EXPECT_EQ(tl.times, ref.times);
        EXPECT_EQ(tl.levels, ref.levels);
    }
}

TEST(ConcurrencyTimeline, OrderedStreamWithTiesMatchesSortedReference)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        expectMatchesReference(tiedBundle(seed, /*shuffle=*/false));
    }
}

TEST(ConcurrencyTimeline, DisorderedStreamWithTiesMatchesSortedReference)
{
    for (std::uint64_t seed = 1; seed <= 8; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        TraceBundle bundle = tiedBundle(seed, /*shuffle=*/true);
        std::string panicked;
        try {
            detail::ConcurrencyTimeline tl;
            detail::buildConcurrencyTimeline(bundle, {}, tl, nullptr,
                                             nullptr, nullptr);
        } catch (const PanicError &e) {
            panicked = e.what();
        }
        EXPECT_EQ(panicked, "panic: buildConcurrencyTimeline: cswitch "
                            "stream out of timestamp order");
        trace::canonicalize(bundle);
        expectMatchesReference(bundle);
    }
}

/**
 * An ordered stream of @p events switches over @p cpus CPUs, one in
 * sixteen on one of the two CPU ids past the header's count, with
 * gaps of 0 to 3,000 ns: thousands of breakpoints, so windows cross
 * many checkpoint rows.
 */
TraceBundle
cursorBundle(std::uint64_t seed, unsigned events, unsigned cpus = 6)
{
    Rng rng(seed);
    TraceBundle bundle;
    bundle.numLogicalCpus = cpus;
    static const trace::Pid kPids[] = {0, 5, 6, 7, 5};
    SimTime t = 50'000;
    for (unsigned i = 0; i < events; ++i) {
        t += rng.below(4) == 0 ? 0 : rng.below(3000);
        CSwitchEvent e;
        e.timestamp = t;
        e.cpu = static_cast<trace::CpuId>(
            rng.below(16) == 0 ? cpus + rng.below(2) : rng.below(cpus));
        e.oldPid = kPids[rng.below(5)];
        e.newPid = kPids[rng.below(5)];
        e.newTid = e.newPid * 10 + static_cast<trace::Tid>(rng.below(2));
        e.readyTime = t;
        bundle.cswitches.push_back(e);
    }
    bundle.startTime = 0;
    bundle.stopTime = t + 100'000;
    return bundle;
}

/** The filters the cursor tests walk: pid sets, a thread, cpu masks. */
std::vector<detail::TimelineSpec>
cursorSpecs()
{
    std::vector<detail::TimelineSpec> specs(5);
    specs[1].pids = {5};
    specs[2].pids = {6};
    specs[2].hasTid = true;
    specs[2].tid = 61;
    specs[3].cpuMask = 0b101101;
    specs[4].pids = {5, 7};
    specs[4].cpuMask = 0b000110;
    return specs;
}

void
expectSameProfile(const ConcurrencyProfile &got,
                  const ConcurrencyProfile &want)
{
    EXPECT_EQ(got.numCpus, want.numCpus);
    EXPECT_EQ(got.window, want.window);
    EXPECT_EQ(got.outOfRangeCpuEvents, want.outOfRangeCpuEvents);
    ASSERT_EQ(got.c.size(), want.c.size());
    for (std::size_t l = 0; l < got.c.size(); ++l)
        EXPECT_EQ(std::bit_cast<std::uint64_t>(got.c[l]),
                  std::bit_cast<std::uint64_t>(want.c[l]))
            << "level " << l;
}

/**
 * Walk @p windows with one cursor (and each with a fresh one) and
 * check every profile against the reference sweep.
 */
void
expectWalkMatchesSweep(
    const TraceBundle &bundle, const detail::TimelineSpec &spec,
    const std::vector<std::pair<SimTime, SimTime>> &windows)
{
    detail::ConcurrencyTimeline tl;
    detail::buildConcurrencyTimeline(bundle, spec, tl, nullptr, nullptr);
    detail::ConcurrencyCursor cursor(tl);
    ConcurrencyProfile walked, fresh;
    for (const auto &[t0, t1] : windows) {
        SCOPED_TRACE("window [" + std::to_string(t0) + ", " +
                     std::to_string(t1) + ")");
        ConcurrencyProfile want =
            detail::sweepConcurrency(bundle, spec, t0, t1);
        cursor.window(t0, t1, walked);
        expectSameProfile(walked, want);
        detail::ConcurrencyCursor(tl).window(t0, t1, fresh);
        expectSameProfile(fresh, want);
    }
}

/** Adjacent windows of @p width from @p begin to past @p end. */
std::vector<std::pair<SimTime, SimTime>>
adjacentRun(SimTime begin, SimTime end, SimTime width)
{
    std::vector<std::pair<SimTime, SimTime>> windows;
    for (SimTime t = begin; t < end; t += width)
        windows.emplace_back(t, std::min(t + width, end));
    return windows;
}

TEST(ConcurrencyCursor, AdjacentRunsMatchTheSweep)
{
    for (std::uint64_t seed = 1; seed <= 3; ++seed) {
        TraceBundle bundle = cursorBundle(seed, 3000);
        for (const detail::TimelineSpec &spec : cursorSpecs()) {
            SCOPED_TRACE("seed " + std::to_string(seed));
            // From before the first breakpoint to past the last, with
            // a short last window; narrow runs step inside segments,
            // wide ones jump whole checkpoint rows.
            for (SimTime width : {SimTime{700}, SimTime{37'000},
                                  SimTime{1'000'003}})
                expectWalkMatchesSweep(
                    bundle, spec,
                    adjacentRun(0, bundle.stopTime + 5000, width));
        }
    }
}

TEST(ConcurrencyCursor, GapsOverlapsAndRepeatsMatchTheSweep)
{
    TraceBundle bundle = cursorBundle(4, 3000);
    Rng rng(99);
    for (const detail::TimelineSpec &spec : cursorSpecs()) {
        std::vector<std::pair<SimTime, SimTime>> windows;
        SimTime t = 10'000;
        while (t < bundle.stopTime + 20'000) {
            SimTime width = 1 + rng.below(60'000);
            windows.emplace_back(t, t + width);
            switch (rng.below(4)) {
              case 0: // a gap
                t += width + rng.below(40'000);
                break;
              case 1: // overlap: the next window starts inside
                t += width / 2;
                break;
              case 2: // the same window again
                break;
              default: // adjacent
                t += width;
                break;
            }
        }
        // Random windows in random order: every one reseeds or walks.
        for (int i = 0; i < 200; ++i) {
            SimTime a = rng.below(bundle.stopTime + 50'000);
            SimTime b = rng.below(bundle.stopTime + 50'000);
            if (a == b)
                ++b;
            windows.emplace_back(std::min(a, b), std::max(a, b));
        }
        expectWalkMatchesSweep(bundle, spec, windows);
    }
}

TEST(ConcurrencyCursor, EdgesOnBreakpointsAndCheckpointRows)
{
    TraceBundle bundle = cursorBundle(5, 3000);
    for (const detail::TimelineSpec &spec : cursorSpecs()) {
        detail::ConcurrencyTimeline tl;
        detail::buildConcurrencyTimeline(bundle, spec, tl, nullptr,
                                         nullptr);
        ASSERT_GT(tl.times.size(),
                  4 * detail::ConcurrencyTimeline::kStride);
        // Edges exactly on, and one ns either side of, every
        // breakpoint of the first rows and every checkpoint row's
        // breakpoint, walked as one adjacent run.
        std::vector<SimTime> edges = {0};
        for (std::size_t j = 0; j < tl.times.size(); ++j) {
            if (j > 3 * detail::ConcurrencyTimeline::kStride &&
                j % detail::ConcurrencyTimeline::kStride != 0 &&
                j + 1 != tl.times.size())
                continue;
            for (SimTime e : {tl.times[j] - 1, tl.times[j],
                              tl.times[j] + 1})
                if (e > edges.back())
                    edges.push_back(e);
        }
        edges.push_back(bundle.stopTime);
        std::vector<std::pair<SimTime, SimTime>> windows;
        for (std::size_t i = 1; i < edges.size(); ++i)
            windows.emplace_back(edges[i - 1], edges[i]);
        // Whole checkpoint rows between breakpoint edges.
        const std::size_t S = detail::ConcurrencyTimeline::kStride;
        for (std::size_t k = 0; k + 2 * S < tl.times.size(); k += S)
            windows.emplace_back(tl.times[k], tl.times[k + 2 * S]);
        expectWalkMatchesSweep(bundle, spec, windows);
    }
}

TEST(ConcurrencyCursor, WindowsBeforeAndAfterEveryBreakpoint)
{
    TraceBundle bundle = cursorBundle(6, 400);
    for (const detail::TimelineSpec &spec : cursorSpecs()) {
        const SimTime first = bundle.cswitches.front().timestamp;
        const SimTime last = bundle.cswitches.back().timestamp;
        expectWalkMatchesSweep(
            bundle, spec,
            {{0, first / 2},
             {first / 2, first},
             {first, first + 1},
             {last, last + 1},
             {last + 1, last + 10'000},
             {last + 10'000, bundle.stopTime},
             {0, bundle.stopTime}});
    }
    // An empty timeline: no target switch at all.
    detail::TimelineSpec nobody;
    nobody.pids = {42};
    expectWalkMatchesSweep(bundle, nobody,
                           adjacentRun(0, bundle.stopTime, 9000));
}

// Past 63 CPUs the cursor's level buffers move to the heap.
TEST(ConcurrencyCursor, WideTracesMatchTheSweep)
{
    TraceBundle bundle = cursorBundle(7, 6000, 100);
    detail::TimelineSpec all;
    expectWalkMatchesSweep(bundle, all,
                           adjacentRun(0, bundle.stopTime, 25'000));
    detail::TimelineSpec some;
    some.pids = {5, 6};
    expectWalkMatchesSweep(bundle, some,
                           {{0, bundle.stopTime},
                            {70'000, 90'000},
                            {60'000, 4'000'000}});
}

TEST(ConcurrencyCursor, GallopFindsThePartitionFromAnyHint)
{
    const std::vector<SimTime> v = {1, 3, 3, 3, 8, 9, 12, 12, 40};
    for (SimTime t = 0; t <= 41; ++t) {
        auto below = [t](SimTime x) { return x < t; };
        const auto want = static_cast<std::size_t>(
            std::lower_bound(v.begin(), v.end(), t) - v.begin());
        for (std::size_t hint = 0; hint <= v.size() + 2; ++hint)
            EXPECT_EQ(detail::gallopPartition(v, hint, below), want)
                << "t " << t << " hint " << hint;
    }
    EXPECT_EQ(detail::gallopPartition(std::vector<SimTime>{}, 3,
                                      [](SimTime) { return true; }),
              0u);
}

} // namespace

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
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <string>
#include <utility>
#include <vector>

#include "analysis/concurrency_timeline.hh"
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

} // namespace

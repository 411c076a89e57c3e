#include "analysis/concurrency_timeline.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"

namespace deskpar::analysis::detail {

using sim::SimDuration;
using sim::SimTime;

void
buildConcurrencyTimeline(const trace::TraceBundle &bundle,
                         const TimelineSpec &spec,
                         ConcurrencyTimeline &tl,
                         std::vector<SimTime> *dispatches,
                         BurstColumns *bursts, WaitColumns *waits)
{
    tl.cutoff = bundle.numLogicalCpus;
    const unsigned cutoff = tl.cutoff;

    // Emit (timestamp, +1/-1) occupancy deltas in stream order — the
    // per-CPU busy flags are a state machine over the stream, exactly
    // as in the reference sweep — and collect the dispatch and burst
    // columns from the same transitions.
    std::vector<std::pair<SimTime, int>> deltas;
    deltas.reserve(bundle.cswitches.size());
    std::vector<std::uint8_t> cpuBusy(cutoff, 0);
    std::vector<SimTime> burstStart;
    if (bursts)
        burstStart.assign(cutoff, 0);
    bool sorted = true;
    SimTime prev_ts = 0;

    for (const auto &e : bundle.cswitches) {
        if (!cpuInMask(spec.cpuMask, e.cpu))
            continue;
        bool target = isTargetSwitch(spec, e.newPid, e.newTid);
        if (dispatches && target)
            dispatches->push_back(e.timestamp);
        if (waits && target) {
            // Readers clamp inverted ready times; clamp again so a
            // hand-built bundle cannot wrap the wait.
            waits->begin.push_back(
                std::min(e.readyTime, e.timestamp));
            waits->end.push_back(e.timestamp);
        }
        if (e.timestamp < prev_ts)
            sorted = false;
        prev_ts = e.timestamp;
        if (cutoff == 0)
            continue;
        if (e.cpu >= cutoff) {
            ++tl.outOfRangeCpuEvents;
            continue;
        }
        std::uint8_t now_busy = target ? 1 : 0;
        if (cpuBusy[e.cpu] == now_busy)
            continue;
        deltas.emplace_back(e.timestamp, now_busy ? 1 : -1);
        if (bursts) {
            if (now_busy)
                burstStart[e.cpu] = e.timestamp;
            else if (e.timestamp > burstStart[e.cpu])
                bursts->bursts.push_back(
                    Interval{burstStart[e.cpu], e.timestamp});
        }
        cpuBusy[e.cpu] = now_busy;
    }
    // An ordered stream pushed both columns in order already: a sort
    // (stable or not) of an ordered sequence is the identity, so only
    // a disordered stream pays for one.
    if (dispatches && !sorted)
        std::sort(dispatches->begin(), dispatches->end());
    if (waits) {
        // Sort by end (a stable sort keeps equal-end rows paired) and
        // compute the suffix-minimum begin column.
        const std::size_t n = waits->end.size();
        if (!sorted) {
            std::vector<std::pair<SimTime, SimTime>> rows;
            rows.reserve(n);
            for (std::size_t i = 0; i < n; ++i)
                rows.emplace_back(waits->end[i], waits->begin[i]);
            std::stable_sort(rows.begin(), rows.end(),
                             [](const auto &a, const auto &b) {
                                 return a.first < b.first;
                             });
            for (std::size_t i = 0; i < n; ++i) {
                waits->end[i] = rows[i].first;
                waits->begin[i] = rows[i].second;
            }
        }
        waits->minBegin.resize(n);
        SimTime mn = 0;
        for (std::size_t i = n; i-- > 0;) {
            mn = i + 1 == n ? waits->begin[i]
                            : std::min(mn, waits->begin[i]);
            waits->minBegin[i] = mn;
        }
    }
    if (bursts) {
        // CPUs still busy at the end of the stream: close the burst
        // at the observation-window end. Disordered streams can
        // produce inverted bursts; those are dropped on emission.
        for (unsigned cpu = 0; cpu < cutoff; ++cpu) {
            if (cpuBusy[cpu] && bundle.stopTime > burstStart[cpu])
                bursts->bursts.push_back(
                    Interval{burstStart[cpu], bundle.stopTime});
        }
        std::sort(bursts->bursts.begin(), bursts->bursts.end(),
                  [](const Interval &a, const Interval &b) {
                      return a.begin < b.begin;
                  });
        // The running-max end column and the histogram checkpoint
        // rows, in one pass: row k is the bucket counts of the first
        // k*kStride bursts.
        constexpr std::size_t kStride = ConcurrencyTimeline::kStride;
        constexpr std::size_t B = kDurationHistogramBuckets;
        const std::size_t nb = bursts->bursts.size();
        bursts->maxEnd.reserve(nb);
        bursts->bucketCum.resize((nb / kStride + 1) * B);
        std::uint32_t acc[B] = {};
        SimTime mx = 0;
        for (std::size_t i = 0; i < nb; ++i) {
            if (i % kStride == 0)
                std::copy(acc, acc + B,
                          bursts->bucketCum.begin() +
                              static_cast<std::ptrdiff_t>(
                                  i / kStride * B));
            const Interval &iv = bursts->bursts[i];
            mx = i == 0 ? iv.end : std::max(mx, iv.end);
            bursts->maxEnd.push_back(mx);
            ++acc[durationHistogramBucket(iv.length())];
        }
        if (nb % kStride == 0)
            std::copy(acc, acc + B,
                      bursts->bucketCum.end() -
                          static_cast<std::ptrdiff_t>(B));
    }

    if (cutoff == 0)
        return; // every query must take the sweep path (it fatals)

    // The reference sweep stable-sorts its (clamped) deltas; sorting
    // the unclamped emission stably yields the same per-timestamp
    // group sums for every window, which is all the level function
    // depends on.
    if (!sorted) {
        std::stable_sort(deltas.begin(), deltas.end(),
                         [](const auto &a, const auto &b) {
                             return a.first < b.first;
                         });
    }

    // Compress equal-timestamp groups into breakpoints. A negative
    // cumulative level means the (disordered) stream closed a CPU
    // before opening it; poison the timeline so queries fall back.
    long long level = 0;
    for (std::size_t i = 0; i < deltas.size();) {
        SimTime ts = deltas[i].first;
        long long sum = 0;
        for (; i < deltas.size() && deltas[i].first == ts; ++i)
            sum += deltas[i].second;
        if (sum == 0)
            continue;
        level += sum;
        if (level < 0) {
            tl.times.clear();
            tl.levels.clear();
            return;
        }
        tl.times.push_back(ts);
        tl.levels.push_back(static_cast<int>(level));
    }
    tl.usable = true;

    // Checkpoint rows: running per-level time at every kStride-th
    // breakpoint. Integer sums, so checkpoint differences decompose
    // a window exactly.
    const std::size_t L = cutoff + 1;
    const std::size_t n = tl.times.size();
    if (n == 0)
        return;
    const std::size_t rows =
        (n - 1) / ConcurrencyTimeline::kStride + 1;
    tl.cum.assign(rows * L, 0);
    std::vector<SimDuration> acc(L, 0);
    for (std::size_t j = 0; j < n; ++j) {
        if (j % ConcurrencyTimeline::kStride == 0) {
            std::copy(acc.begin(), acc.end(),
                      tl.cum.begin() +
                          static_cast<std::ptrdiff_t>(
                              (j / ConcurrencyTimeline::kStride) *
                              L));
        }
        if (j + 1 < n) {
            auto lvl = static_cast<unsigned>(std::clamp(
                tl.levels[j], 0, static_cast<int>(cutoff)));
            acc[lvl] += tl.times[j + 1] - tl.times[j];
        }
    }
}

std::uint64_t
burstHistogram(const BurstColumns &bc, SimTime t0, SimTime t1,
               std::uint64_t *histogram)
{
    constexpr std::size_t kStride = ConcurrencyTimeline::kStride;
    constexpr std::size_t B = kDurationHistogramBuckets;
    const std::vector<Interval> &bursts = bc.bursts;
    auto beginBefore = [](const Interval &iv, SimTime t) {
        return iv.begin < t;
    };
    auto at = [](std::size_t i) { return static_cast<std::ptrdiff_t>(i); };

    // Candidates [first, last): bursts intersecting the window begin
    // before t1, and the running-max end column bounds how far back
    // they reach — the GPU packet candidate-range trick.
    std::size_t last = static_cast<std::size_t>(
        std::lower_bound(bursts.begin(), bursts.end(), t1,
                         beginBefore) -
        bursts.begin());
    std::size_t first = static_cast<std::size_t>(
        std::upper_bound(bc.maxEnd.begin(),
                         bc.maxEnd.begin() + at(last), t0) -
        bc.maxEnd.begin());
    // Interior [b0, k): begin >= t0 (sorted begins) and end <=
    // maxEnd <= t1, so each of these bursts lies wholly inside the
    // window and keeps its full length. first <= b0 <= k <= last.
    std::size_t b0 = static_cast<std::size_t>(
        std::lower_bound(bursts.begin() + at(first),
                         bursts.begin() + at(last), t0, beginBefore) -
        bursts.begin());
    std::size_t k = static_cast<std::size_t>(
        std::upper_bound(bc.maxEnd.begin() + at(b0),
                         bc.maxEnd.begin() + at(last), t1) -
        bc.maxEnd.begin());

    std::uint64_t count = 0;
    auto clampRange = [&](std::size_t from, std::size_t to) {
        for (std::size_t i = from; i < to; ++i) {
            Interval iv = bursts[i].clampTo(t0, t1);
            if (iv.empty())
                continue;
            ++count;
            ++histogram[durationHistogramBucket(iv.length())];
        }
    };
    auto wholeRange = [&](std::size_t from, std::size_t to) {
        for (std::size_t i = from; i < to; ++i)
            ++histogram[durationHistogramBucket(bursts[i].length())];
    };

    clampRange(first, b0);
    // Whole checkpoint rows [rowA, rowB) of the interior, plus the
    // partial strides on either side.
    const std::size_t rowA = (b0 + kStride - 1) / kStride;
    const std::size_t rowB = k / kStride;
    if (rowA <= rowB) {
        wholeRange(b0, rowA * kStride);
        const std::uint32_t *a = &bc.bucketCum[rowA * B];
        const std::uint32_t *b = &bc.bucketCum[rowB * B];
        for (std::size_t l = 0; l < B; ++l)
            histogram[l] += b[l] - a[l];
        wholeRange(rowB * kStride, k);
    } else {
        wholeRange(b0, k);
    }
    count += k - b0;
    clampRange(k, last);
    return count;
}

ConcurrencyProfile
queryConcurrencyTimeline(const ConcurrencyTimeline &tl, SimTime t0,
                         SimTime t1)
{
    ConcurrencyProfile profile;
    std::vector<SimDuration> timeAt;
    queryConcurrencyTimeline(tl, t0, t1, profile, timeAt);
    return profile;
}

void
queryConcurrencyTimeline(const ConcurrencyTimeline &tl, SimTime t0,
                         SimTime t1, ConcurrencyProfile &profile,
                         std::vector<SimDuration> &timeAt)
{
    constexpr std::size_t kStride = ConcurrencyTimeline::kStride;
    const unsigned num_cpus = tl.cutoff;
    const std::size_t L = num_cpus + 1;

    profile.numCpus = num_cpus;
    profile.window = t1 - t0;
    profile.c.resize(L);
    profile.outOfRangeCpuEvents = tl.outOfRangeCpuEvents;

    timeAt.assign(L, 0);
    const std::vector<SimTime> &times = tl.times;
    const std::size_t n = times.size();
    auto clampLvl = [num_cpus](int level) {
        return static_cast<unsigned>(
            std::clamp(level, 0, static_cast<int>(num_cpus)));
    };

    // First breakpoint strictly inside the window.
    std::size_t idx = static_cast<std::size_t>(
        std::upper_bound(times.begin(), times.end(), t0) -
        times.begin());

    // Head: the tail of the segment containing t0.
    SimTime headEnd = (idx < n && times[idx] < t1) ? times[idx] : t1;
    int headLevel = idx == 0 ? 0 : tl.levels[idx - 1];
    timeAt[clampLvl(headLevel)] += headEnd - t0;

    if (idx < n && times[idx] < t1) {
        std::size_t j = idx; // position: exactly at breakpoint j
        while (true) {
            if (j % kStride == 0) {
                // Jump over whole checkpoint rows: the largest
                // aligned breakpoint k2*kStride still <= t1.
                std::size_t k1 = j / kStride;
                std::size_t maxk = (n - 1) / kStride;
                std::size_t k2 = k1;
                for (std::size_t lo = k1 + 1, hi = maxk; lo <= hi;) {
                    std::size_t mid = lo + (hi - lo) / 2;
                    if (times[mid * kStride] <= t1) {
                        k2 = mid;
                        lo = mid + 1;
                    } else {
                        hi = mid - 1;
                    }
                }
                if (k2 > k1) {
                    const SimDuration *a = &tl.cum[k1 * L];
                    const SimDuration *b = &tl.cum[k2 * L];
                    for (std::size_t l = 0; l < L; ++l)
                        timeAt[l] += b[l] - a[l];
                    j = k2 * kStride;
                    continue;
                }
            }
            // Segment j = [times[j], times[j+1)); the last level
            // extends past the final breakpoint.
            SimTime segEnd = (j + 1 < n) ? times[j + 1] : t1;
            if (segEnd >= t1) {
                timeAt[clampLvl(tl.levels[j])] += t1 - times[j];
                break;
            }
            timeAt[clampLvl(tl.levels[j])] += segEnd - times[j];
            ++j;
        }
    }

    double window = static_cast<double>(profile.window);
    for (std::size_t i = 0; i < L; ++i)
        profile.c[i] = static_cast<double>(timeAt[i]) / window;
}

ConcurrencyProfile
sweepConcurrency(const trace::TraceBundle &bundle,
                 const TimelineSpec &spec, SimTime t0, SimTime t1)
{
    const unsigned num_cpus = bundle.numLogicalCpus;
    // Sweep the per-CPU run timelines into +1/-1 deltas at the times
    // a target thread starts/stops occupying a CPU. A flat sorted
    // vector replaces the old std::map: one O(n log n) sort instead
    // of a red-black-tree insert per context switch, and the per-CPU
    // busy flags are a flat array indexed by CpuId.
    std::vector<std::pair<SimTime, int>> deltas;
    deltas.reserve(bundle.cswitches.size());
    std::vector<std::uint8_t> cpuBusy(num_cpus, 0);
    std::uint64_t out_of_range = 0;

    for (const auto &e : bundle.cswitches) {
        if (!cpuInMask(spec.cpuMask, e.cpu))
            continue;
        if (e.cpu >= cpuBusy.size()) {
            // A cpu id past the header's CPU count contradicts the
            // trace; count it instead of growing the histogram and
            // clamp-folding the phantom CPU into the top level.
            ++out_of_range;
            continue;
        }
        std::uint8_t now_busy =
            isTargetSwitch(spec, e.newPid, e.newTid) ? 1 : 0;
        if (cpuBusy[e.cpu] == now_busy)
            continue;
        SimTime ts = std::clamp(e.timestamp, t0, t1);
        deltas.emplace_back(ts, now_busy ? 1 : -1);
        cpuBusy[e.cpu] = now_busy;
    }
    // Threads still on a CPU at the window end: close at t1 (the
    // delta list records the +1; no -1 needed since the sweep ends).

    // cswitches are chronological, so a stable sort keeps each CPU's
    // +1 ahead of its matching -1 even when clamping collapses both
    // onto a window edge.
    std::stable_sort(deltas.begin(), deltas.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });

    ConcurrencyProfile profile;
    profile.numCpus = num_cpus;
    profile.window = t1 - t0;
    profile.c.assign(num_cpus + 1, 0.0);
    profile.outOfRangeCpuEvents = out_of_range;

    SimTime prev = t0;
    int level = 0;
    std::vector<SimDuration> timeAt(num_cpus + 1, 0);
    for (const auto &[ts, delta] : deltas) {
        if (ts > prev) {
            if (level < 0)
                deskpar::panic(
                    "computeConcurrency: negative concurrency");
            auto lvl = static_cast<unsigned>(std::clamp(
                level, 0, static_cast<int>(num_cpus)));
            timeAt[lvl] += ts - prev;
            prev = ts;
        }
        level += delta;
    }
    if (level < 0)
        deskpar::panic("computeConcurrency: negative concurrency");
    if (t1 > prev) {
        auto lvl = static_cast<unsigned>(
            std::clamp(level, 0, static_cast<int>(num_cpus)));
        timeAt[lvl] += t1 - prev;
    }

    double window = static_cast<double>(profile.window);
    for (unsigned i = 0; i <= num_cpus; ++i)
        profile.c[i] = static_cast<double>(timeAt[i]) / window;
    return profile;
}

} // namespace deskpar::analysis::detail

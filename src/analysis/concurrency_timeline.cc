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
    // columns from the same transitions. The stream is ordered, so
    // the deltas, dispatches and waits come out sorted.
    std::vector<std::pair<SimTime, int>> deltas;
    deltas.reserve(bundle.cswitches.size());
    std::vector<std::uint8_t> cpuBusy(cutoff, 0);
    std::vector<SimTime> burstStart;
    if (bursts)
        burstStart.assign(cutoff, 0);
    SimTime prev_ts = 0;

    for (const auto &e : bundle.cswitches) {
        if (e.timestamp < prev_ts)
            deskpar::panic("buildConcurrencyTimeline: cswitch stream "
                           "out of timestamp order");
        prev_ts = e.timestamp;
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
    if (waits) {
        // The suffix-minimum begin column of the end-sorted waits.
        const std::size_t n = waits->end.size();
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
        // at the observation-window end.
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

    // Compress equal-timestamp groups into breakpoints. In an
    // ordered stream every CPU opens before it closes, so each level
    // lies in [0, cutoff].
    long long level = 0;
    for (std::size_t i = 0; i < deltas.size();) {
        SimTime ts = deltas[i].first;
        long long sum = 0;
        for (; i < deltas.size() && deltas[i].first == ts; ++i)
            sum += deltas[i].second;
        if (sum == 0)
            continue;
        level += sum;
        tl.times.push_back(ts);
        tl.levels.push_back(static_cast<int>(level));
    }

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
        if (j + 1 < n)
            acc[static_cast<unsigned>(tl.levels[j])] +=
                tl.times[j + 1] - tl.times[j];
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

ConcurrencyCursor::ConcurrencyCursor(const ConcurrencyTimeline &tl)
    : tl_(&tl), levels_(tl.cutoff + 1), buf_(3 * levels_),
      p0_(levels_), p1_(2 * levels_)
{
}

void
ConcurrencyCursor::seek(SimTime t)
{
    constexpr std::size_t kStride = ConcurrencyTimeline::kStride;
    const std::vector<SimTime> &times = tl_->times;
    SimDuration *base = buf_.data();
    const std::size_t next = gallopPartition(
        times, next_, [t](SimTime x) { return x <= t; });
    if (next < next_) {
        // Behind the cursor: restart from before the first segment.
        next_ = 0;
        std::fill_n(base, levels_, 0);
    }
    if (next == 0)
        return;
    // Load the checkpoint row at or before breakpoint next-1 unless
    // the cursor already sits past it, then add whole segments.
    const std::size_t row = (next - 1) / kStride;
    if (next_ == 0 || row > (next_ - 1) / kStride) {
        std::copy_n(tl_->cum.begin() +
                        static_cast<std::ptrdiff_t>(row * levels_),
                    levels_, base);
        next_ = row * kStride + 1;
    }
    for (; next_ < next; ++next_)
        base[static_cast<unsigned>(tl_->levels[next_ - 1])] +=
            times[next_] - times[next_ - 1];
}

void
ConcurrencyCursor::prefix(SimTime t, SimDuration *out) const
{
    std::copy_n(buf_.data(), levels_, out);
    if (next_ == 0)
        out[0] += t - (tl_->times.empty() ? 0 : tl_->times[0]);
    else
        out[static_cast<unsigned>(tl_->levels[next_ - 1])] +=
            t - tl_->times[next_ - 1];
}

void
ConcurrencyCursor::window(SimTime t0, SimTime t1,
                          ConcurrencyProfile &profile)
{
    if (haveEdge_ && t0 == edge_) {
        std::swap(p0_, p1_);
    } else {
        seek(t0);
        prefix(t0, &buf_[p0_]);
    }
    seek(t1);
    prefix(t1, &buf_[p1_]);
    edge_ = t1;
    haveEdge_ = true;

    profile.numCpus = tl_->cutoff;
    profile.window = t1 - t0;
    profile.outOfRangeCpuEvents = tl_->outOfRangeCpuEvents;
    profile.c.resize(levels_);
    const double window = static_cast<double>(profile.window);
    for (std::size_t l = 0; l < levels_; ++l)
        profile.c[l] =
            static_cast<double>(buf_[p1_ + l] - buf_[p0_ + l]) / window;
}

} // namespace deskpar::analysis::detail

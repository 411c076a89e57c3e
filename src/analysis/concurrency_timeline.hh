/**
 * @file
 * The shared concurrency-timeline machinery behind TraceIndex and the
 * fused query planner (analysis/query_plan.hh).
 *
 * PR 3 introduced the compressed breakpoint timeline inside
 * trace_index.cc; the query layer needs the same structure for
 * arbitrary filters (pid set, single thread, cpu mask), so the build
 * and query algorithms live here, parameterized by a TimelineSpec.
 * With the default spec (no tid, all cpus) the builder reproduces the
 * original TraceIndex sweep event for event, which is what keeps the
 * index-backed queries bit-identical to the reference sweeps in
 * tests/reference/.
 *
 * The cswitch stream must be in timestamp order, as every decoder
 * leaves it (trace::canonicalize): the builder panics on a
 * disordered stream, which only a hand-built bundle can hold. Order
 * is what makes one pass enough — the deltas, dispatches and waits
 * are emitted sorted, and the level never goes negative.
 *
 * The builder can additionally collect, in the same single pass:
 *  - the sorted switch-in (dispatch) column, used by responsiveness
 *    and by the context-switch-rate metric,
 *  - per-CPU busy-burst intervals (one contiguous run of target work
 *    on one CPU), used by the duration-histogram metric, and
 *  - per-dispatch ready-wait intervals ([readyTime, timestamp)),
 *    used by the ready-wait metrics (waitfrac/readylat/topblocked).
 *
 * Windows are answered by ConcurrencyCursor, a forward walk over the
 * prefix time-at-level at each window edge: a run of adjacent
 * windows (planner bucket rows, series points) costs one edge per
 * window, found by galloping on from the previous edge.
 */

#ifndef DESKPAR_ANALYSIS_CONCURRENCY_TIMELINE_HH
#define DESKPAR_ANALYSIS_CONCURRENCY_TIMELINE_HH

#include <algorithm>
#include <bit>
#include <cstdint>
#include <vector>

#include "analysis/intervals.hh"
#include "analysis/tlp.hh"
#include "trace/filter.hh"
#include "trace/session.hh"

namespace deskpar::analysis {

/** Log2-spaced duration buckets: bucket i covers [2^i, 2^{i+1}) ns. */
inline constexpr unsigned kDurationHistogramBuckets = 32;

} // namespace deskpar::analysis

namespace deskpar::analysis::detail {

/**
 * Log2 bucket index of duration @p d (ns), capped at the top:
 * floor(log2 d) for d >= 2, else 0, in O(1).
 */
inline unsigned
durationHistogramBucket(sim::SimDuration d)
{
    if (d <= 1)
        return 0;
    return std::min(static_cast<unsigned>(std::bit_width(d)) - 1,
                    kDurationHistogramBuckets - 1);
}

/**
 * CPU selection mask for a query filter. Bit i selects logical CPU i;
 * kAllCpus (the default) disables masking entirely. CPUs with id >=
 * 64 can only be selected by kAllCpus — no real desktop trace in the
 * paper's corpus exceeds that, and the mask stays one word.
 */
using CpuMask = std::uint64_t;
inline constexpr CpuMask kAllCpus = ~static_cast<CpuMask>(0);

inline bool
cpuInMask(CpuMask mask, trace::CpuId cpu)
{
    if (mask == kAllCpus)
        return true;
    return cpu < 64 && ((mask >> cpu) & 1u) != 0;
}

/**
 * What counts as "target work" for one timeline: a pid set (empty =
 * every non-idle process), optionally narrowed to one thread and/or a
 * cpu mask. Events on masked-out CPUs are invisible to the sweep —
 * they produce no dispatches, no occupancy deltas, and no
 * out-of-range accounting.
 */
struct TimelineSpec
{
    trace::PidSet pids;
    bool hasTid = false;
    trace::Tid tid = 0;
    CpuMask cpuMask = kAllCpus;
};

/** The spec's switch-in predicate (pid 0 is the idle process). */
inline bool
isTargetSwitch(const TimelineSpec &spec, trace::Pid pid, trace::Tid tid)
{
    if (pid == 0)
        return false;
    if (!spec.pids.empty() && spec.pids.count(pid) == 0)
        return false;
    return !spec.hasTid || tid == spec.tid;
}

/**
 * The concurrency level of one filter as a piecewise-constant
 * function of time, compressed to its breakpoints.
 *
 * levels[i] is the number of CPUs running target threads on
 * [times[i], times[i+1)); the level is 0 before times[0] and
 * levels.back() extends past the last breakpoint. Zero-net groups of
 * equal-timestamp deltas are dropped, so consecutive levels differ.
 *
 * cum holds strided checkpoint rows of kStride segments:
 * cum[k*(cutoff+1) + l] is the (integer) time spent at level l over
 * [times[0], times[k*kStride]). ConcurrencyCursor reads the time at
 * each level up to a window edge from the row before it plus at most
 * kStride-1 segments, so a window costs two such edges, and a run of
 * adjacent windows one edge each.
 */
struct ConcurrencyTimeline
{
    static constexpr std::size_t kStride = 32;

    unsigned cutoff = 0;
    std::uint64_t outOfRangeCpuEvents = 0;
    std::vector<sim::SimTime> times;
    std::vector<int> levels;
    std::vector<sim::SimDuration> cum;
};

/**
 * Per-CPU busy bursts of one filter: each interval is one contiguous
 * run of target work on a single CPU (open bursts close at the
 * bundle's stopTime). Sorted by begin; maxEnd[i] is the running
 * maximum of bursts[0..i].end, so the bursts that can intersect a
 * window are a binary-searchable candidate range, exactly like the
 * GPU packet columns.
 *
 * bucketCum holds strided checkpoint rows of the duration histogram,
 * with the timeline's kStride: bucketCum[k*kDurationHistogramBuckets
 * + b] counts the bursts of bursts[0, k*kStride) whose whole length
 * falls in bucket b, for k = 0 .. bursts.size()/kStride (uint32
 * counts: 4 bytes per burst).
 */
struct BurstColumns
{
    std::vector<Interval> bursts;
    std::vector<sim::SimTime> maxEnd;
    std::vector<std::uint32_t> bucketCum;
};

/**
 * Ready-wait columns of one filter: one [readyTime, timestamp) wait
 * interval per target switch-in, zero-length waits kept (the latency
 * mean counts every dispatch), sorted by end (the dispatch time).
 * minBegin[i] is the suffix minimum of begin[i..), so a windowed
 * fold stops scanning as soon as no remaining interval can reach
 * back into the window — the mirror image of BurstColumns::maxEnd,
 * because waits sort naturally by their *end*.
 */
struct WaitColumns
{
    std::vector<sim::SimTime> begin;
    std::vector<sim::SimTime> end;
    std::vector<sim::SimTime> minBegin;
};

/**
 * One fused pass over the cswitch stream: build the compressed
 * timeline for @p spec and optionally collect the sorted dispatch
 * column, the busy-burst columns, and the ready-wait columns. With a
 * default-constructed filter (beyond the pid set) this is the
 * original TraceIndex sweep, preserved operation for operation.
 * Panics when the cswitch stream is out of timestamp order.
 */
void buildConcurrencyTimeline(const trace::TraceBundle &bundle,
                              const TimelineSpec &spec,
                              ConcurrencyTimeline &timeline,
                              std::vector<sim::SimTime> *dispatches,
                              BurstColumns *bursts,
                              WaitColumns *waits = nullptr);

/**
 * Add the duration histogram of the bursts clamped to [@p t0, @p t1)
 * into @p histogram (kDurationHistogramBuckets entries) and return
 * the number of non-empty clamped bursts: exactly what clamping every
 * burst and bucketing its length would give. Bursts wholly inside
 * the window form one index range — begin >= t0 and maxEnd <= t1 —
 * answered from checkpoint-row differences plus at most
 * 2*(ConcurrencyTimeline::kStride-1) burst reads; only the
 * candidates straddling an edge are clamped one by one.
 */
std::uint64_t burstHistogram(const BurstColumns &columns,
                             sim::SimTime t0, sim::SimTime t1,
                             std::uint64_t *histogram);

/**
 * Index of the first element of the sorted column @p v for which
 * @p before is false (std::partition_point), galloping forward from
 * @p from: the probes double away from it, so an answer d places on
 * costs O(log d). A @p from past the answer (or past the end) falls
 * back to a search of the whole column, so any hint is correct and a
 * caller walking adjacent windows can pass the previous answer.
 */
template <typename Before>
std::size_t
gallopPartition(const std::vector<sim::SimTime> &v, std::size_t from,
                Before before)
{
    const std::size_t n = v.size();
    if (from > n || (from > 0 && !before(v[from - 1])))
        from = 0;
    // v[0, lo) is before; the answer lies in [lo, hi].
    std::size_t lo = from;
    std::size_t hi = from;
    for (std::size_t step = 1; hi < n && before(v[hi]); step *= 2) {
        lo = hi + 1;
        hi = std::min(n, lo + step);
    }
    return static_cast<std::size_t>(
        std::partition_point(v.begin() + static_cast<std::ptrdiff_t>(lo),
                             v.begin() + static_cast<std::ptrdiff_t>(hi),
                             before) -
        v.begin());
}

/**
 * Windowed histograms from one timeline, walking forward.
 *
 * The cursor evaluates the prefix time-at-level P(t): P(t)[l] is the
 * integer time spent at level l over [times[0], t), so a window is
 * P(t1) - P(t0) level by level. P at an edge is a checkpoint row,
 * plus at most kStride-1 whole segments, plus the partial segment
 * holding the edge; the edge's segment is found by galloping forward
 * from the previous edge. Row k's P(t1) is row k+1's P(t0), so a run
 * of adjacent windows (bucket rows, series points) computes each
 * edge once. Before times[0] the level is 0 and P(t)[0] = t -
 * times[0] wraps below zero; every difference is still exact in
 * unsigned arithmetic.
 *
 * Bit-identical to the reference sweep: the time-at-level integers
 * are the same sums split differently, and the one divide by the
 * window per level is the only floating-point operation. A window
 * whose t0 lies behind the cursor reseeds it by a binary search, so
 * a single window runs the same code from a searched seed. Its
 * three level-sized buffers are one allocation, made when the cursor
 * is built; a walk allocates nothing per window once the profile's
 * `c` has grown.
 */
class ConcurrencyCursor
{
  public:
    explicit ConcurrencyCursor(const ConcurrencyTimeline &timeline);

    const ConcurrencyTimeline &timeline() const { return *tl_; }

    /** The histogram over [@p t0, @p t1), into @p profile. */
    void window(sim::SimTime t0, sim::SimTime t1,
                ConcurrencyProfile &profile);

  private:
    /** Move the base prefix to the segment holding @p t. */
    void seek(sim::SimTime t);
    /** P(@p t) into @p out; the cursor must sit on t's segment. */
    void prefix(sim::SimTime t, sim::SimDuration *out) const;

    const ConcurrencyTimeline *tl_;
    /** Levels per prefix: cutoff + 1. */
    std::size_t levels_;
    /** Breakpoints at or before the cursor: times[0, next_). */
    std::size_t next_ = 0;
    /**
     * Three prefixes of levels_ each: [0, levels_) is
     * P(times[next_ - 1]) (all zero while next_ == 0); the two at
     * offsets p0_ and p1_ are P at the current window's edges.
     */
    std::vector<sim::SimDuration> buf_;
    std::size_t p0_;
    std::size_t p1_;
    /** The last window's t1, whose P is p1_. */
    sim::SimTime edge_ = 0;
    bool haveEdge_ = false;
};

} // namespace deskpar::analysis::detail

#endif // DESKPAR_ANALYSIS_CONCURRENCY_TIMELINE_HH

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
 * cum[k*(cutoff+1) + l] is the (integer) time spent at clamped level
 * l over [times[0], times[k*kStride]). A windowed query therefore
 * costs two binary searches, one checkpoint-row difference, and at
 * most kStride edge segments per side.
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
 * Windowed histogram from a timeline, into @p profile. Bit-identical
 * to the reference sweep: the time-at-level decomposition is the
 * same integer sum split differently, and the single divide-by-window
 * per level is the only floating-point operation. Reuses the
 * profile's `c` vector and the per-level @p timeAt scratch: no
 * allocation once both have grown, for callers that answer many
 * windows (planner rows, series).
 */
void queryConcurrencyTimeline(const ConcurrencyTimeline &timeline,
                              sim::SimTime t0, sim::SimTime t1,
                              ConcurrencyProfile &profile,
                              std::vector<sim::SimDuration> &timeAt);

} // namespace deskpar::analysis::detail

#endif // DESKPAR_ANALYSIS_CONCURRENCY_TIMELINE_HH

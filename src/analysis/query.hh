/**
 * @file
 * The composable trace-query vocabulary: filter -> group-by ->
 * metric, as a value type.
 *
 * Every analysis in the paper reproduction is an instance of one
 * small pattern (select events, partition them, fold a metric per
 * partition) — Pipit makes the same observation for parallel-trace
 * analysis at large. A Query names one such instance:
 *
 *   filter   pid set / process-name prefix / time window / cpu mask
 *   group-by process | thread | phase marker | GPU engine |
 *            fixed-width time bucket | none
 *   metric   TLP (Equation 1) | busy fraction | GPU packet
 *            occupancy | context-switch rate | duration histogram |
 *            ready-wait fraction | ready latency | blocked seconds
 *
 * Queries are data, not code: they can be parsed from the CLI's
 * compact text syntax (parseQuerySpec), batched, and compiled by the
 * fusing planner (query_plan.hh) into one pass per distinct filter.
 * The differential tests hold a straight-line reference runner
 * (tests/reference/) the planner is proven bit-identical against —
 * each row evaluated with an independent full sweep, exactly what a
 * caller would have hand-written before this layer existed.
 */

#ifndef DESKPAR_ANALYSIS_QUERY_HH
#define DESKPAR_ANALYSIS_QUERY_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/concurrency_timeline.hh"
#include "analysis/gpu_util.hh"
#include "analysis/tlp.hh"
#include "sim/logging.hh"
#include "trace/event.hh"
#include "trace/filter.hh"
#include "trace/session.hh"

namespace deskpar::analysis {

/** What to fold per group. */
enum class QueryMetric : std::uint8_t {
    /** TLP per Equation 1 (idle factored out). */
    Tlp = 0,
    /** 1 - c_0: fraction of the window with any target thread on. */
    BusyFraction = 1,
    /** GPU packet occupancy percent (Section III-B, capped at 100). */
    GpuOccupancy = 2,
    /** Target switch-ins per second of window. */
    ContextSwitchRate = 3,
    /** Histogram of per-CPU busy-burst durations (log2 buckets). */
    DurationHistogram = 4,
    /**
     * Mean number of target threads sitting ready-to-run: the summed
     * [readyTime, timestamp) wait time inside the window, divided by
     * the window. A TLP-style number, but counting threads that
     * *could* have run — the serialization signal of Section IV.
     */
    WaitFraction = 5,
    /** Mean ready-queue latency (seconds) per in-window dispatch. */
    ReadyLatency = 6,
    /** Absolute in-window ready-wait seconds (for top-N ranking). */
    TopBlocked = 7,
};

/** How to partition the filtered window into rows. */
enum class QueryGroupBy : std::uint8_t {
    None = 0,
    /** One row per pid of the resolved set. */
    Process = 1,
    /** One row per distinct (pid, tid) switch-in target. */
    Thread = 2,
    /** One row per "phase:" marker interval. */
    Phase = 3,
    /** One row per GPU engine (GpuOccupancy only). */
    GpuEngine = 4,
    /** One row per fixed-width time bucket (Query::bucket). */
    TimeBucket = 5,
};

/** Spec-syntax name of a metric ("tlp", "busy", ...). */
const char *queryMetricName(QueryMetric metric);

/** Spec-syntax name of a group-by ("process", "bucket", ...). */
const char *queryGroupByName(QueryGroupBy groupBy);

/**
 * Event selection. An empty pid set with an empty prefix means
 * "every non-idle process" (system-wide); a non-empty prefix is
 * resolved against the bundle's process names (and it is fatal for
 * it to match nothing — a misspelled application must not silently
 * become a system-wide number). t1 == 0 selects the whole bundle
 * window. The cpu mask narrows the cswitch-derived metrics to a CPU
 * subset; GPU packets carry no cpu and ignore it.
 */
struct QueryFilter
{
    trace::PidSet pids;
    std::string namePrefix;
    sim::SimTime t0 = 0;
    sim::SimTime t1 = 0;
    detail::CpuMask cpuMask = detail::kAllCpus;
};

/** One query: filter -> group-by -> metric. */
struct Query
{
    QueryMetric metric = QueryMetric::Tlp;
    QueryFilter filter;
    QueryGroupBy groupBy = QueryGroupBy::None;
    /** Bucket width for QueryGroupBy::TimeBucket (else ignored). */
    sim::SimDuration bucket = 0;
    /** Display label; defaults to the canonical spec string. */
    std::string label;
};

/** One result row (one group of one query). */
struct QueryRow
{
    /** Group key (process name, phase label, engine name, ...). */
    std::string key;
    /** The row's window. */
    sim::SimTime t0 = 0;
    sim::SimTime t1 = 0;
    /** Set for Process/Thread rows. */
    trace::Pid pid = 0;
    trace::Tid tid = 0;
    /** The metric value (for DurationHistogram: the burst count). */
    double value = 0.0;
    /** DurationHistogram only: kDurationHistogramBuckets counts. */
    std::vector<std::uint64_t> histogram;
};

/** All rows of one query, in deterministic group order. */
struct QueryResult
{
    Query query;
    std::vector<QueryRow> rows;
};

/**
 * Parse the CLI's compact spec syntax:
 *
 *   metric[/key=value]...
 *
 * with metric one of tlp|busy|gpu|csrate|dhist|waitfrac|readylat|
 * topblocked and fields
 *   app=PREFIX  pids=1,2,3  t0=SECONDS  t1=SECONDS
 *   cpus=0,2-5  by=process|thread|phase|engine|bucket:WIDTH
 *   label=NAME
 * where WIDTH is a duration like 250ms, 2s, 500us, 100000ns.
 * Fatal (FatalError) on malformed specs.
 */
Query parseQuerySpec(const std::string &spec);

/** Canonical spec string of @p query (inverse of parseQuerySpec). */
std::string querySpecString(const Query &query);

/**
 * The FatalError of a query whose resolved window is empty: the trace
 * holds no events, or the spec's t1 is not past its t0. The planner
 * does not know the trace's name; Service::query adds it.
 */
class EmptyWindowError : public FatalError
{
  public:
    using FatalError::FatalError;
};

/**
 * @{ Canned queries: existing metric entry points re-expressed in
 * the query vocabulary. Each is exact: running it (fused or
 * reference) reproduces the corresponding Session call bit for bit —
 * tlpQuery == concurrency(pids).tlp(), tlpSeriesQuery ==
 * tlpSeries(pids, window).points[i].value, gpuUtilSeriesQuery ==
 * gpuUtilSeries(pids, window).points[i].value.
 */
Query tlpQuery(trace::PidSet pids);
Query tlpSeriesQuery(trace::PidSet pids, sim::SimDuration window);
Query gpuUtilSeriesQuery(trace::PidSet pids,
                         sim::SimDuration window);
/** @} */

namespace detail {

/** A query filter after name/window resolution. */
struct ResolvedFilter
{
    trace::PidSet pids;
    sim::SimTime t0 = 0;
    sim::SimTime t1 = 0;
    CpuMask cpuMask = kAllCpus;
};

/**
 * Resolve prefix -> pids (fatal when a non-empty prefix matches no
 * process) and default the window to the bundle's (EmptyWindowError
 * when the resolved window is empty). Touches the bundle's lazy name
 * index, so resolve before fanning out across threads.
 */
ResolvedFilter resolveQueryFilter(const trace::TraceBundle &bundle,
                                  const QueryFilter &filter);

/**
 * One expanded row before evaluation: its window and its display
 * identity. Its event filter is derived, not stored (rowFilter).
 */
struct QueryRowSpec
{
    std::string key;
    sim::SimTime t0 = 0;
    sim::SimTime t1 = 0;
    /** Display identity for Process/Thread rows. */
    trace::Pid pidLabel = 0;
    trace::Tid tidLabel = 0;
    /** >= 0: this row reads perEngine[engine] (GpuEngine group). */
    int engine = -1;
};

/** The rows of one query and the filter they were resolved from. */
struct QueryRows
{
    ResolvedFilter filter;
    std::vector<QueryRowSpec> rows;
};

/**
 * Expand @p query into row specs, in the deterministic order the
 * result rows will have. Shared by the reference runner and the
 * planner, so grouping semantics cannot drift between them. Fatal on
 * invalid metric/group combinations (GPU occupancy per thread,
 * non-GPU metric per engine, TimeBucket without a width).
 */
QueryRows expandQueryRows(const trace::TraceBundle &bundle,
                          const Query &query);

/**
 * The event filter of @p row of a @p groupBy query resolved to
 * @p filter: Process rows select {pidLabel}, Thread rows also their
 * tid, and every other group the resolved pid set; all take the
 * resolved cpu mask. The reference derives it per row; the planner
 * once per query, except for Process and Thread rows.
 */
TimelineSpec rowFilter(QueryGroupBy groupBy,
                       const ResolvedFilter &filter,
                       const QueryRowSpec &row);

/** The final value fold of the concurrency-profile metrics. */
inline double
metricFromProfile(QueryMetric metric, const ConcurrencyProfile &p)
{
    return metric == QueryMetric::Tlp ? p.tlp()
                                      : 1.0 - p.idleFraction();
}

/** The final value fold of the GPU metric (engine < 0: aggregate). */
inline double
engineOccupancyPercent(const GpuUtilization &util, int engine)
{
    if (engine < 0)
        return util.utilizationPercent();
    double ratio = util.perEngine[static_cast<unsigned>(engine)];
    return (ratio > 1.0 ? 1.0 : ratio) * 100.0;
}

/** The final value fold of the context-switch-rate metric. */
inline double
contextSwitchRate(std::uint64_t count, sim::SimDuration window)
{
    return static_cast<double>(count) / sim::toSeconds(window);
}

/**
 * Integer fold of the ready-wait metrics over one window: wait time
 * overlapping [t0, t1), plus the full latency and count of the
 * dispatches whose switch-in lands inside it. All sums are integer
 * nanoseconds, so the reference sweep (stream order) and the
 * planner's sorted columns produce bit-identical folds.
 */
struct WaitFold
{
    std::uint64_t overlapNs = 0;
    std::uint64_t latencyNs = 0;
    std::uint64_t dispatches = 0;
};

/** The final value fold of the ready-wait metrics. */
inline double
waitMetricValue(QueryMetric metric, const WaitFold &fold,
                sim::SimDuration window)
{
    switch (metric) {
      case QueryMetric::WaitFraction:
        return sim::toSeconds(fold.overlapNs) / sim::toSeconds(window);
      case QueryMetric::ReadyLatency:
        return fold.dispatches == 0
                   ? 0.0
                   : sim::toSeconds(fold.latencyNs) /
                         static_cast<double>(fold.dispatches);
      default:
        return sim::toSeconds(fold.overlapNs);
    }
}

} // namespace detail

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_QUERY_HH

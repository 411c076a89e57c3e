/**
 * @file
 * The fusing query planner: compile a *batch* of Query values into an
 * execution plan that walks the cswitch stream at most once per
 * distinct filter, then answers every row of every query from the resulting
 * columns.
 *
 * A naive batch evaluation (one independent sweep per row, as the
 * reference runner in tests/reference/ does) pays one full event
 * sweep per row — a 16-query TLP/busy/csrate/dhist batch over the
 * same application re-reads the same cswitch vector dozens of times.
 * The planner deduplicates the per-row event filters (pid set, tid,
 * cpu mask) and asks the TraceIndex for every column family any of a
 * filter's rows needs — concurrency timeline, dispatch column, burst
 * columns, wait columns. The index owns those columns: it builds the
 * missing families of a filter in ONE fused buildConcurrencyTimeline
 * pass and keeps them, so a batch against a resident Session sweeps
 * only the filters and families no earlier batch or index query
 * needed, and a repeated batch sweeps nothing. Row evaluation is then
 * searches and checkpoint diffs. GPU rows are answered from the
 * index's shared packet columns and need no pass of their own.
 *
 * Both phases fan out with sim::parallelFor — phase B in fixed
 * contiguous chunks of rows. A chunk's bucket rows are adjacent
 * windows, so the chunk walks them with one forward cursor over the
 * timeline (TLP, busy) and one galloping hint over the dispatches
 * (csrate): a row costs one window edge, and no span or allocation
 * of its own. The results are bit-identical at any DESKPAR_JOBS:
 *  - every task writes only its own result rows, reading immutable
 *    index columns, so values never depend on scheduling or on
 *    whether an earlier batch built them;
 *  - the floating-point fold of each row is the same operation
 *    sequence the reference runner performs, via the
 *    shared detail:: fold helpers and the proven timeline/GPU query
 *    paths;
 *  - errors are captured per task and the lowest-index one is
 *    rethrown after the join, which is exactly the error the serial
 *    reference would hit first.
 *
 * The out-of-range-cpu warning is emitted at most once per trace
 * (TraceIndex::warnOutOfRangeOnce), not once per query in the batch.
 */

#ifndef DESKPAR_ANALYSIS_QUERY_PLAN_HH
#define DESKPAR_ANALYSIS_QUERY_PLAN_HH

#include <cstddef>
#include <string>
#include <vector>

#include "analysis/concurrency_timeline.hh"
#include "analysis/query.hh"

namespace deskpar::analysis {

class TraceIndex;

/** Explain entry: one distinct filter (= at most one column pass). */
struct QueryPlanPass
{
    /** Human description of the filter ("pids={5,6} cpus=0-3"). */
    std::string filter;
    /** Metric names answered from this filter, first-use order. */
    std::vector<std::string> metrics;
    /** Result rows answered from this filter. */
    std::size_t rows = 0;
    /**
     * Column families the filter needs (all false: no pass needed).
     * The index builds those it does not hold yet in one pass.
     */
    bool buildsTimeline = false;
    bool buildsDispatches = false;
    bool buildsBursts = false;
    bool buildsWaits = false;
};

/** What `deskpar query --explain` prints. */
struct QueryPlanExplain
{
    std::size_t queries = 0;
    std::size_t rows = 0;
    std::size_t distinctFilters = 0;
    /** Filters whose pass actually sweeps the cswitch stream. */
    std::size_t columnPasses = 0;
    std::vector<QueryPlanPass> passes;

    /** Render as the multi-line --explain text. */
    std::string str() const;
};

/**
 * A compiled batch. Compilation resolves name prefixes and expands
 * groups (so it touches the bundle's lazy name index single-threaded)
 * and is cheap — all event work happens in run(). A plan can be run
 * any number of times; @p threads 0 means resolveJobs (DESKPAR_JOBS).
 */
class QueryPlan
{
  public:
    /**
     * Compile @p queries against @p index's bundle. The index must
     * outlive the plan. Fatal on invalid queries (unmatched prefix,
     * empty window, invalid metric/group combination).
     */
    static QueryPlan compile(const TraceIndex &index,
                             const std::vector<Query> &queries);

    /** Execute: one QueryResult per compiled query, in order. */
    std::vector<QueryResult> run(unsigned threads = 0) const &;

    /**
     * Execute a plan that is run once: its pre-shaped result rows
     * are handed over instead of copied. The plan keeps its explain
     * text; running it again panics.
     */
    std::vector<QueryResult> run(unsigned threads = 0) &&;

    const QueryPlanExplain &explain() const { return explain_; }

  private:
    QueryPlan() = default;

    /** Fill @p results (a copy of skeleton_, or skeleton_ itself). */
    std::vector<QueryResult> execute(std::vector<QueryResult> results,
                                     unsigned threads) const;

    /** One distinct row filter and the columns its rows need. */
    struct Filter
    {
        detail::TimelineSpec spec;
        /** TraceIndex::CswitchFamily bits; 0 needs no columns. */
        unsigned families = 0;
    };

    /**
     * One evaluation unit: fills rows [firstRow, firstRow+rowCount)
     * of results[queryIdx] over the window [t0, t1). rowCount > 1
     * only for a GpuEngine group, whose five rows share one packet
     * fold (row k = engine k). The row's event filter is
     * filters_[filterIdx].spec (GPU rows read its pid set), derived
     * by detail::rowFilter at compile time.
     */
    struct Task
    {
        std::size_t queryIdx = 0;
        std::size_t filterIdx = 0;
        std::size_t firstRow = 0;
        std::size_t rowCount = 1;
        QueryMetric metric = QueryMetric::Tlp;
        sim::SimTime t0 = 0;
        sim::SimTime t1 = 0;
        /** >= 0: a single row reading perEngine[engine]. */
        int engine = -1;
    };

    const TraceIndex *index_ = nullptr;
    /** Per-query results with rows pre-shaped (values unset). */
    std::vector<QueryResult> skeleton_;
    std::vector<Filter> filters_;
    std::vector<Task> tasks_;
    QueryPlanExplain explain_;
};

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_QUERY_PLAN_HH

#include "analysis/query_plan.hh"

#include <algorithm>
#include <exception>
#include <map>
#include <optional>
#include <tuple>
#include <utility>

#include "analysis/trace_index.hh"
#include "obs/obs.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"

namespace deskpar::analysis {

using sim::SimTime;
using trace::Pid;

namespace {

/**
 * Rows per phase-B parallelFor task. Large enough that a chunk's
 * dispatch and span cost nothing next to its rows, small enough
 * that a 5,000-row batch still spreads over every worker.
 */
constexpr std::size_t kTasksPerChunk = 64;

/** Human description of a filter, for --explain. */
std::string
describeFilter(const detail::TimelineSpec &spec)
{
    std::string desc;
    if (spec.pids.empty()) {
        desc = "all processes";
    } else {
        std::vector<Pid> pids(spec.pids.begin(), spec.pids.end());
        std::sort(pids.begin(), pids.end());
        desc = "pids={";
        for (std::size_t i = 0; i < pids.size(); ++i) {
            if (i > 0)
                desc += ',';
            desc += std::to_string(pids[i]);
        }
        desc += '}';
    }
    if (spec.hasTid)
        desc += " tid=" + std::to_string(spec.tid);
    if (spec.cpuMask != detail::kAllCpus) {
        desc += " cpus=";
        bool first = true;
        for (unsigned cpu = 0; cpu < 64; ++cpu) {
            if (!detail::cpuInMask(spec.cpuMask, cpu))
                continue;
            if (!first)
                desc += ',';
            desc += std::to_string(cpu);
            first = false;
        }
    }
    return desc;
}

} // namespace

std::string
QueryPlanExplain::str() const
{
    std::string out = "plan: " + std::to_string(queries) +
                      " quer" + (queries == 1 ? "y" : "ies") + ", " +
                      std::to_string(rows) + " row" +
                      (rows == 1 ? "" : "s") + ", " +
                      std::to_string(distinctFilters) +
                      " distinct filter" +
                      (distinctFilters == 1 ? "" : "s") + ", " +
                      std::to_string(columnPasses) +
                      " column pass" +
                      (columnPasses == 1 ? "" : "es") + "\n";
    for (std::size_t i = 0; i < passes.size(); ++i) {
        const QueryPlanPass &pass = passes[i];
        out += "  filter " + std::to_string(i + 1) + ": " +
               pass.filter + "  [";
        for (std::size_t m = 0; m < pass.metrics.size(); ++m) {
            if (m > 0)
                out += ',';
            out += pass.metrics[m];
        }
        out += "]  rows=" + std::to_string(pass.rows) + "  builds=";
        std::string builds;
        if (pass.buildsTimeline)
            builds = "timeline";
        if (pass.buildsDispatches)
            builds += std::string(builds.empty() ? "" : "+") +
                      "dispatches";
        if (pass.buildsBursts)
            builds += std::string(builds.empty() ? "" : "+") +
                      "bursts";
        if (pass.buildsWaits)
            builds += std::string(builds.empty() ? "" : "+") +
                      "waits";
        if (builds.empty())
            builds = "none (shared gpu columns)";
        out += builds + "\n";
    }
    return out;
}

QueryPlan
QueryPlan::compile(const TraceIndex &index,
                   const std::vector<Query> &queries)
{
    obs::Span span("query.plan", obs::SpanKind::Plan, queries.size());
    const trace::TraceBundle &bundle = index.bundle();

    QueryPlan plan;
    plan.index_ = &index;
    plan.skeleton_.reserve(queries.size());

    // Distinct row filters, keyed by (sorted pids, tid, cpu mask).
    using FilterKey =
        std::tuple<std::vector<Pid>, bool, trace::Tid, detail::CpuMask>;
    std::map<FilterKey, std::size_t> filterIds;

    auto internFilter = [&](detail::TimelineSpec &&spec) {
        std::vector<Pid> sorted(spec.pids.begin(), spec.pids.end());
        std::sort(sorted.begin(), sorted.end());
        FilterKey key{std::move(sorted), spec.hasTid,
                      spec.hasTid ? spec.tid : 0, spec.cpuMask};
        auto [it, inserted] =
            filterIds.emplace(std::move(key), plan.filters_.size());
        if (inserted) {
            plan.explain_.passes.push_back(QueryPlanPass{
                describeFilter(spec), {}, 0, false, false, false});
            plan.filters_.push_back(Filter{std::move(spec), 0});
        }
        return it->second;
    };

    // Expand every query first (in order, so the first invalid query
    // is the one reported) and size the task list once.
    std::vector<detail::QueryRows> expanded;
    expanded.reserve(queries.size());
    std::size_t totalRows = 0;
    for (const Query &query : queries) {
        expanded.push_back(detail::expandQueryRows(bundle, query));
        totalRows += expanded.back().rows.size();
    }
    plan.tasks_.reserve(totalRows);

    for (std::size_t qi = 0; qi < queries.size(); ++qi) {
        const Query &query = queries[qi];
        QueryResult result;
        result.query = query;
        if (result.query.label.empty())
            result.query.label = querySpecString(query);

        std::vector<detail::QueryRowSpec> &specs = expanded[qi].rows;
        result.rows.reserve(specs.size());
        for (detail::QueryRowSpec &spec : specs) {
            QueryRow row;
            row.key = std::move(spec.key);
            row.t0 = spec.t0;
            row.t1 = spec.t1;
            row.pid = spec.pidLabel;
            row.tid = spec.tidLabel;
            result.rows.push_back(std::move(row));
        }

        // GPU rows read the index's shared packet columns; the
        // interned filter only records sharing for --explain (no
        // column needs). The cswitch metrics intern the exact event
        // filter their sweep would use.
        const bool gpu = query.metric == QueryMetric::GpuOccupancy;
        unsigned families = 0;
        switch (query.metric) {
          case QueryMetric::Tlp:
          case QueryMetric::BusyFraction:
            families = TraceIndex::kTimeline;
            break;
          case QueryMetric::ContextSwitchRate:
            families = TraceIndex::kDispatches;
            break;
          case QueryMetric::DurationHistogram:
            families = TraceIndex::kBursts;
            break;
          case QueryMetric::WaitFraction:
          case QueryMetric::ReadyLatency:
          case QueryMetric::TopBlocked:
            families = TraceIndex::kWaits;
            break;
          case QueryMetric::GpuOccupancy:
            break;
        }
        const char *metricName = queryMetricName(query.metric);

        // Intern the filter of row @p ri (derived, as the reference
        // derives it) and charge @p rows to it.
        auto useFilter = [&](std::size_t ri, std::size_t rows) {
            detail::TimelineSpec spec = detail::rowFilter(
                query.groupBy, expanded[qi].filter, specs[ri]);
            if (gpu)
                spec.cpuMask = detail::kAllCpus; // packets carry no cpu
            std::size_t fi = internFilter(std::move(spec));
            plan.filters_[fi].families |= families;
            QueryPlanPass &pass = plan.explain_.passes[fi];
            if (std::find(pass.metrics.begin(), pass.metrics.end(),
                          metricName) == pass.metrics.end())
                pass.metrics.push_back(metricName);
            pass.rows += rows;
            return fi;
        };

        auto addTask = [&](std::size_t filterIdx, std::size_t firstRow,
                           std::size_t rowCount) {
            const detail::QueryRowSpec &spec = specs[firstRow];
            Task task;
            task.queryIdx = qi;
            task.filterIdx = filterIdx;
            task.firstRow = firstRow;
            task.rowCount = rowCount;
            task.metric = query.metric;
            task.t0 = spec.t0;
            task.t1 = spec.t1;
            task.engine = spec.engine;
            plan.tasks_.push_back(task);
        };

        if (!specs.empty()) {
            switch (query.groupBy) {
              case QueryGroupBy::GpuEngine:
                // The five engine rows share one packet fold.
                addTask(useFilter(0, specs.size()), 0, specs.size());
                break;
              case QueryGroupBy::None:
              case QueryGroupBy::Phase:
              case QueryGroupBy::TimeBucket: {
                // Every row of these groups selects the query's own
                // resolved filter: intern it once per query.
                std::size_t fi = useFilter(0, specs.size());
                for (std::size_t ri = 0; ri < specs.size(); ++ri)
                    addTask(fi, ri, 1);
                break;
              }
              case QueryGroupBy::Process:
              case QueryGroupBy::Thread:
                for (std::size_t ri = 0; ri < specs.size(); ++ri)
                    addTask(useFilter(ri, 1), ri, 1);
                break;
            }
        }

        plan.explain_.rows += result.rows.size();
        plan.skeleton_.push_back(std::move(result));
    }

    plan.explain_.queries = queries.size();
    plan.explain_.distinctFilters = plan.filters_.size();
    for (std::size_t fi = 0; fi < plan.filters_.size(); ++fi) {
        const Filter &filter = plan.filters_[fi];
        QueryPlanPass &pass = plan.explain_.passes[fi];
        pass.buildsTimeline =
            (filter.families & TraceIndex::kTimeline) != 0;
        pass.buildsDispatches =
            (filter.families & TraceIndex::kDispatches) != 0;
        pass.buildsBursts =
            (filter.families & TraceIndex::kBursts) != 0;
        pass.buildsWaits =
            (filter.families & TraceIndex::kWaits) != 0;
        if (filter.families != 0)
            ++plan.explain_.columnPasses;
    }
    return plan;
}

std::vector<QueryResult>
QueryPlan::run(unsigned threads) const &
{
    return execute(skeleton_, threads);
}

std::vector<QueryResult>
QueryPlan::run(unsigned threads) &&
{
    return execute(std::move(skeleton_), threads);
}

std::vector<QueryResult>
QueryPlan::execute(std::vector<QueryResult> results,
                   unsigned threads) const
{
    // A plan whose rows were handed over (run() &&) has none left.
    if (results.size() != explain_.queries)
        deskpar::panic("QueryPlan::run: the plan was already run as "
                       "an rvalue");
    obs::Span span("query.execute", obs::SpanKind::Plan,
                   tasks_.size());
    const trace::TraceBundle &bundle = index_->bundle();
    unsigned jobs = sim::resolveJobs(threads);

    // Phase A: the index's columns of every distinct filter that
    // needs some. A filter the index has not swept for these
    // families yet costs one fused cswitch pass (different filters
    // build in parallel, each under its own slot lock); a resident
    // index answers a repeated batch with no pass at all.
    using Columns = TraceIndex::CswitchColumns;
    std::vector<const Columns *> columns(filters_.size(), nullptr);
    sim::parallelFor(jobs, filters_.size(), [&](std::size_t fi) {
        if (filters_[fi].families != 0)
            columns[fi] = &index_->filterColumns(filters_[fi].spec,
                                                 filters_[fi].families);
    });

    // Once per trace, not once per query: fold every pass's count
    // through the index's deduplicated warning, in filter order so
    // the emitted count is deterministic.
    for (const Columns *cols : columns) {
        if (cols)
            index_->warnOutOfRangeOnce(
                cols->timeline.outOfRangeCpuEvents,
                cols->timeline.cutoff);
    }

    // Phase B: evaluate every task against the shared columns, in
    // fixed contiguous chunks of kTasksPerChunk. Each task writes
    // only its own rows. A chunk stops at its first error, and the
    // error of the lowest chunk is rethrown: that is the
    // lowest-index failing task, the one the serial reference hits
    // first, at any thread count.
    TraceIndex::GpuWindows gpu;
    if (std::any_of(tasks_.begin(), tasks_.end(), [](const Task &t) {
            return t.metric == QueryMetric::GpuOccupancy;
        }))
        gpu = index_->gpuWindows();
    const std::size_t chunks =
        (tasks_.size() + kTasksPerChunk - 1) / kTasksPerChunk;
    std::vector<std::exception_ptr> errors(chunks);

    // One chunk's walk state: a row allocates nothing but its own
    // histogram. A chunk's run of bucket rows is a run of adjacent
    // windows on one column, so the timeline cursor and the dispatch
    // hint move forward only, one edge per row; a row on another
    // filter or behind them reseeds.
    struct Scratch
    {
        ConcurrencyProfile profile;
        std::optional<detail::ConcurrencyCursor> cursor;
        std::size_t dispatchHint = 0;
    };

    auto evalTask = [&](const Task &task, Scratch &scratch) {
        QueryResult &result = results[task.queryIdx];
        switch (task.metric) {
          case QueryMetric::Tlp:
          case QueryMetric::BusyFraction: {
            if (bundle.numLogicalCpus == 0)
                deskpar::fatal(
                    "computeConcurrency: unknown CPU count");
            if (task.t1 <= task.t0)
                deskpar::fatal("computeConcurrency: empty window");
            const detail::ConcurrencyTimeline &timeline =
                columns[task.filterIdx]->timeline;
            if (!scratch.cursor || &scratch.cursor->timeline() != &timeline)
                scratch.cursor.emplace(timeline);
            scratch.cursor->window(task.t0, task.t1, scratch.profile);
            result.rows[task.firstRow].value =
                detail::metricFromProfile(task.metric, scratch.profile);
            break;
          }
          case QueryMetric::GpuOccupancy: {
            GpuUtilization util = gpu.fold(
                filters_[task.filterIdx].spec.pids, task.t0, task.t1);
            for (std::size_t k = 0; k < task.rowCount; ++k) {
                // Engine-group rows are emitted in engine order, so
                // row k of the task reads engine k.
                int engine = task.rowCount > 1
                                 ? static_cast<int>(k)
                                 : task.engine;
                result.rows[task.firstRow + k].value =
                    detail::engineOccupancyPercent(util, engine);
            }
            break;
          }
          case QueryMetric::ContextSwitchRate: {
            const std::vector<SimTime> &dispatches =
                columns[task.filterIdx]->dispatches;
            // Switch-ins in [t0, t1): lower bounds of both edges.
            // The hint is only a starting point, valid for any column.
            const std::size_t lo = detail::gallopPartition(
                dispatches, scratch.dispatchHint,
                [&](SimTime x) { return x < task.t0; });
            const std::size_t hi = detail::gallopPartition(
                dispatches, lo, [&](SimTime x) { return x < task.t1; });
            scratch.dispatchHint = hi;
            result.rows[task.firstRow].value =
                detail::contextSwitchRate(hi - lo, task.t1 - task.t0);
            break;
          }
          case QueryMetric::DurationHistogram: {
            const detail::BurstColumns &bc =
                columns[task.filterIdx]->bursts;
            QueryRow &row = result.rows[task.firstRow];
            row.histogram.assign(kDurationHistogramBuckets, 0);
            row.value = static_cast<double>(detail::burstHistogram(
                bc, task.t0, task.t1, row.histogram.data()));
            break;
          }
          case QueryMetric::WaitFraction:
          case QueryMetric::ReadyLatency:
          case QueryMetric::TopBlocked: {
            const detail::WaitColumns &wc =
                columns[task.filterIdx]->waits;
            detail::WaitFold fold;
            // Dispatch latency: switch-ins with end (= dispatch
            // time) in [t0, t1) form one contiguous range of the
            // end-sorted column.
            auto lo = std::lower_bound(wc.end.begin(), wc.end.end(),
                                       task.t0);
            auto hi = std::lower_bound(wc.end.begin(), wc.end.end(),
                                       task.t1);
            for (auto it = lo; it != hi; ++it) {
                auto i = static_cast<std::size_t>(
                    it - wc.end.begin());
                ++fold.dispatches;
                fold.latencyNs += wc.end[i] - wc.begin[i];
            }
            // Window overlap: candidates end past t0; the
            // suffix-minimum begin column bounds how far the scan
            // must run before nothing can reach back to t1.
            auto i0 = static_cast<std::size_t>(
                std::upper_bound(wc.end.begin(), wc.end.end(),
                                 task.t0) -
                wc.end.begin());
            for (std::size_t i = i0; i < wc.end.size(); ++i) {
                if (wc.minBegin[i] >= task.t1)
                    break;
                if (wc.begin[i] >= task.t1)
                    continue;
                SimTime wlo = std::max(wc.begin[i], task.t0);
                SimTime whi = std::min(wc.end[i], task.t1);
                fold.overlapNs += whi - wlo;
            }
            result.rows[task.firstRow].value =
                detail::waitMetricValue(task.metric, fold,
                                        task.t1 - task.t0);
            break;
          }
        }
    };

    sim::parallelFor(jobs, chunks, [&](std::size_t chunk) {
        const std::size_t end =
            std::min(tasks_.size(), (chunk + 1) * kTasksPerChunk);
        Scratch scratch;
        for (std::size_t ti = chunk * kTasksPerChunk; ti < end; ++ti) {
            try {
                evalTask(tasks_[ti], scratch);
            } catch (...) {
                errors[chunk] = std::current_exception();
                return;
            }
        }
    });
    for (const std::exception_ptr &error : errors) {
        if (error)
            std::rethrow_exception(error);
    }
    return results;
}

} // namespace deskpar::analysis

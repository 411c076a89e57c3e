/**
 * @file
 * The reference query runner: one independent full sweep per row.
 */

#include <cstdint>
#include <vector>

#include "reference/analysis_legacy.hh"

namespace deskpar::analysis {

using sim::SimTime;

namespace detail {

std::vector<Interval>
collectBursts(const trace::TraceBundle &bundle,
              const TimelineSpec &spec)
{
    // The burst state machine of buildConcurrencyTimeline, standalone:
    // same transitions, same inverted-burst drops, same end-of-stream
    // closing — but written independently as the differential-test
    // reference for the planner's sorted burst columns.
    const unsigned cutoff = bundle.numLogicalCpus;
    std::vector<Interval> bursts;
    if (cutoff == 0)
        return bursts;
    std::vector<std::uint8_t> busy(cutoff, 0);
    std::vector<SimTime> start(cutoff, 0);
    for (const auto &e : bundle.cswitches) {
        if (!cpuInMask(spec.cpuMask, e.cpu))
            continue;
        if (e.cpu >= cutoff)
            continue;
        std::uint8_t now_busy =
            isTargetSwitch(spec, e.newPid, e.newTid) ? 1 : 0;
        if (busy[e.cpu] == now_busy)
            continue;
        if (now_busy)
            start[e.cpu] = e.timestamp;
        else if (e.timestamp > start[e.cpu])
            bursts.push_back(Interval{start[e.cpu], e.timestamp});
        busy[e.cpu] = now_busy;
    }
    for (unsigned cpu = 0; cpu < cutoff; ++cpu) {
        if (busy[cpu] && bundle.stopTime > start[cpu])
            bursts.push_back(Interval{start[cpu], bundle.stopTime});
    }
    return bursts;
}

std::vector<Interval>
collectWaits(const trace::TraceBundle &bundle,
             const TimelineSpec &spec)
{
    std::vector<Interval> waits;
    for (const auto &e : bundle.cswitches) {
        if (!cpuInMask(spec.cpuMask, e.cpu))
            continue;
        if (!isTargetSwitch(spec, e.newPid, e.newTid))
            continue;
        // The readers clamp inverted ready times, but a hand-built
        // bundle may still carry one; clamp again so the wait cannot
        // wrap. Like the dispatch column (csrate), waits ignore the
        // header CPU count — a switch-in is a switch-in.
        SimTime ready = std::min(e.readyTime, e.timestamp);
        waits.push_back(Interval{ready, e.timestamp});
    }
    return waits;
}

WaitFold
foldWaits(const std::vector<Interval> &waits, SimTime t0, SimTime t1)
{
    WaitFold fold;
    for (const Interval &w : waits) {
        if (w.end >= t0 && w.end < t1) {
            ++fold.dispatches;
            fold.latencyNs += w.end - w.begin;
        }
        if (w.end > t0 && w.begin < t1) {
            SimTime lo = std::max(w.begin, t0);
            SimTime hi = std::min(w.end, t1);
            fold.overlapNs += hi - lo;
        }
    }
    return fold;
}

} // namespace detail

namespace legacy {

QueryResult
runQuery(const trace::TraceBundle &bundle, const Query &query)
{
    QueryResult out;
    out.query = query;
    if (out.query.label.empty())
        out.query.label = querySpecString(query);

    detail::QueryRows expanded = detail::expandQueryRows(bundle, query);
    out.rows.reserve(expanded.rows.size());

    // The engine rows of one query share a window; one fold fills all
    // five, like the planner's engine task.
    GpuUtilization engineUtil;
    bool engineFolded = false;

    for (const detail::QueryRowSpec &spec : expanded.rows) {
        QueryRow row;
        row.key = spec.key;
        row.t0 = spec.t0;
        row.t1 = spec.t1;
        row.pid = spec.pidLabel;
        row.tid = spec.tidLabel;

        detail::TimelineSpec ts =
            detail::rowFilter(query.groupBy, expanded.filter, spec);

        switch (query.metric) {
          case QueryMetric::Tlp:
          case QueryMetric::BusyFraction: {
            ConcurrencyProfile profile = detail::referenceConcurrency(
                bundle, ts, spec.t0, spec.t1);
            row.value =
                detail::metricFromProfile(query.metric, profile);
            break;
          }
          case QueryMetric::GpuOccupancy: {
            if (spec.engine >= 0) {
                if (!engineFolded) {
                    engineUtil = computeGpuUtil(bundle, ts.pids,
                                                spec.t0, spec.t1);
                    engineFolded = true;
                }
                row.value = detail::engineOccupancyPercent(
                    engineUtil, spec.engine);
            } else {
                row.value = detail::engineOccupancyPercent(
                    computeGpuUtil(bundle, ts.pids, spec.t0,
                                   spec.t1),
                    -1);
            }
            break;
          }
          case QueryMetric::ContextSwitchRate: {
            std::uint64_t count = 0;
            for (const auto &e : bundle.cswitches) {
                if (!detail::cpuInMask(ts.cpuMask, e.cpu))
                    continue;
                if (!detail::isTargetSwitch(ts, e.newPid, e.newTid))
                    continue;
                if (e.timestamp >= spec.t0 && e.timestamp < spec.t1)
                    ++count;
            }
            row.value =
                detail::contextSwitchRate(count, spec.t1 - spec.t0);
            break;
          }
          case QueryMetric::DurationHistogram: {
            std::vector<Interval> bursts =
                detail::collectBursts(bundle, ts);
            row.histogram.assign(kDurationHistogramBuckets, 0);
            std::uint64_t count = 0;
            for (const Interval &burst : bursts) {
                Interval iv = burst.clampTo(spec.t0, spec.t1);
                if (iv.empty())
                    continue;
                ++count;
                ++row.histogram[detail::durationHistogramBucket(
                    iv.length())];
            }
            row.value = static_cast<double>(count);
            break;
          }
          case QueryMetric::WaitFraction:
          case QueryMetric::ReadyLatency:
          case QueryMetric::TopBlocked: {
            std::vector<Interval> waits =
                detail::collectWaits(bundle, ts);
            detail::WaitFold fold =
                detail::foldWaits(waits, spec.t0, spec.t1);
            row.value = detail::waitMetricValue(query.metric, fold,
                                                spec.t1 - spec.t0);
            break;
          }
        }
        out.rows.push_back(std::move(row));
    }
    return out;
}

std::vector<QueryResult>
runQueries(const trace::TraceBundle &bundle,
           const std::vector<Query> &queries)
{
    std::vector<QueryResult> out;
    out.reserve(queries.size());
    for (const Query &query : queries)
        out.push_back(runQuery(bundle, query));
    return out;
}

} // namespace legacy

} // namespace deskpar::analysis

#include "analysis/timeseries.hh"

#include <algorithm>
#include <optional>

#include "analysis/gpu_util.hh"
#include "analysis/tlp.hh"
#include "analysis/session.hh"
#include "analysis/trace_index.hh"
#include "obs/obs.hh"
#include "sim/logging.hh"

namespace deskpar::analysis {

double
TimeSeries::maxValue() const
{
    double best = 0.0;
    for (const auto &p : points)
        best = std::max(best, p.value);
    return best;
}

double
TimeSeries::meanValue() const
{
    if (points.empty())
        return 0.0;
    double sum = 0.0;
    for (const auto &p : points)
        sum += p.value;
    return sum / static_cast<double>(points.size());
}

namespace {

template <typename PerWindow>
TimeSeries
buildSeries(const TraceBundle &bundle, sim::SimDuration window,
            std::string name, PerWindow per_window)
{
    if (window == 0)
        deskpar::fatal("timeseries: zero window");
    TimeSeries series;
    series.name = std::move(name);
    series.window = window;
    for (sim::SimTime t = bundle.startTime; t < bundle.stopTime;
         t += window) {
        sim::SimTime end = std::min(t + window, bundle.stopTime);
        if (end <= t)
            break;
        series.points.push_back(TimePoint{t, per_window(t, end)});
    }
    return series;
}

/**
 * One concurrency series: the pid set's timeline is resolved at the
 * first window, and the windows, adjacent by construction, are one
 * forward cursor walk over it with no lock, no span and no
 * allocation.
 */
template <typename Value>
TimeSeries
concurrencyValueSeries(const TraceIndex &index, const PidSet &pids,
                       sim::SimDuration window, std::string name,
                       Value value)
{
    obs::Span span("index.series.concurrency", obs::SpanKind::Query);
    std::optional<detail::ConcurrencyCursor> cursor;
    ConcurrencyProfile profile;
    return buildSeries(
        index.bundle(), window, std::move(name),
        [&](sim::SimTime t0, sim::SimTime t1) {
            if (!cursor)
                cursor.emplace(index.concurrencyTimeline(pids));
            cursor->window(t0, t1, profile);
            return value(profile);
        });
}

/** Per-window presented FPS of @p pids (one linear frame scan). */
TimeSeries
presentedFpsSeries(const TraceBundle &bundle, const PidSet &pids,
                   sim::SimDuration window)
{
    TimeSeries series = buildSeries(
        bundle, window, "Frame Rate (FPS)",
        [](sim::SimTime, sim::SimTime) { return 0.0; });
    if (series.points.empty())
        return series;

    for (const auto &frame : bundle.frames) {
        if (!pids.empty() && pids.count(frame.pid) == 0)
            continue;
        if (frame.timestamp < bundle.startTime ||
            frame.timestamp >= bundle.stopTime) {
            continue;
        }
        auto idx = static_cast<std::size_t>(
            (frame.timestamp - bundle.startTime) / window);
        if (idx < series.points.size())
            series.points[idx].value += 1.0;
    }
    // Convert counts to frames per second.
    for (auto &point : series.points) {
        sim::SimTime end =
            std::min(point.t + window, bundle.stopTime);
        double span = sim::toSeconds(end - point.t);
        if (span > 0.0)
            point.value /= span;
    }
    return series;
}

} // namespace

// The Session's series methods live here, beside their window
// machinery (session.hh declares them).

TimeSeries
Session::tlpSeries(const PidSet &pids, sim::SimDuration window) const
{
    return concurrencyValueSeries(
        index(), pids, window, "TLP",
        [](const ConcurrencyProfile &p) { return p.tlp(); });
}

TimeSeries
Session::concurrencySeries(const PidSet &pids,
                           sim::SimDuration window) const
{
    return concurrencyValueSeries(
        index(), pids, window, "Concurrency",
        [](const ConcurrencyProfile &p) { return p.utilization(); });
}

TimeSeries
Session::gpuUtilSeries(const PidSet &pids,
                       sim::SimDuration window) const
{
    obs::Span span("index.series.gpu", obs::SpanKind::Query);
    const TraceIndex &idx = index();
    bool resolved = false;
    TraceIndex::GpuWindows gpu;
    return buildSeries(
        idx.bundle(), window, "GPU Utilization (%)",
        [&](sim::SimTime t0, sim::SimTime t1) {
            if (!resolved) {
                gpu = idx.gpuWindows();
                resolved = true;
            }
            return gpu.fold(pids, t0, t1).utilizationPercent();
        });
}

TimeSeries
Session::frameRateSeries(const PidSet &pids,
                         sim::SimDuration window) const
{
    return presentedFpsSeries(*bundle_, pids, window);
}

} // namespace deskpar::analysis

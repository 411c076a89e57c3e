#include "analysis/framerate.hh"

#include <algorithm>
#include <vector>

#include "analysis/stats.hh"

namespace deskpar::analysis {

namespace detail {

FrameStats
frameStats(const TraceBundle &bundle, const PidSet &pids)
{
    FrameStats stats;
    std::vector<sim::SimTime> times;

    for (const auto &frame : bundle.frames) {
        if (!pids.empty() && pids.count(frame.pid) == 0)
            continue;
        ++stats.frames;
        if (frame.synthesized)
            ++stats.synthesizedFrames;
        times.push_back(frame.timestamp);
    }
    if (stats.frames == 0)
        return stats;

    double span = sim::toSeconds(bundle.duration());
    if (span > 0.0)
        stats.avgFps = static_cast<double>(stats.frames) / span;

    if (times.size() < 2)
        return stats;
    std::sort(times.begin(), times.end());

    std::vector<double> gaps;
    gaps.reserve(times.size() - 1);
    RunningStat fps;
    for (std::size_t i = 1; i < times.size(); ++i) {
        auto gap = static_cast<double>(times[i] - times[i - 1]);
        if (gap <= 0.0)
            continue;
        gaps.push_back(gap);
        fps.add(1e9 / gap);
    }
    stats.fpsStddev = fps.stddev();

    if (!gaps.empty()) {
        std::sort(gaps.begin(), gaps.end());
        // Worst 1% of gaps: take the 99th-percentile gap length.
        std::size_t idx = (gaps.size() * 99) / 100;
        if (idx >= gaps.size())
            idx = gaps.size() - 1;
        stats.onePercentLowFps = 1e9 / gaps[idx];
    }
    return stats;
}

} // namespace detail

} // namespace deskpar::analysis

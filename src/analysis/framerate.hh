/**
 * @file
 * Frame-rate statistics from frame-present events: average FPS,
 * stability (stddev), and the share of synthesized (reprojected)
 * frames — the quantities behind the paper's VR analysis (Section
 * V-F, Figure 13).
 */

#ifndef DESKPAR_ANALYSIS_FRAMERATE_HH
#define DESKPAR_ANALYSIS_FRAMERATE_HH

#include "trace/filter.hh"
#include "trace/session.hh"

namespace deskpar::analysis {

using trace::PidSet;
using trace::TraceBundle;

/** Summary of a frame stream. */
struct FrameStats
{
    std::size_t frames = 0;
    std::size_t synthesizedFrames = 0;
    /** Presented frames per second over the whole window. */
    double avgFps = 0.0;
    /** Standard deviation of instantaneous FPS (1/frame-gap). */
    double fpsStddev = 0.0;
    /** Worst 1% of frame gaps expressed as FPS ("1% low"). */
    double onePercentLowFps = 0.0;

    double
    synthesizedShare() const
    {
        return frames ? static_cast<double>(synthesizedFrames) /
                            static_cast<double>(frames)
                      : 0.0;
    }
};

namespace detail {

/**
 * Frame statistics of @p pids (empty = all) in one sweep over
 * bundle.frames: the fold TraceIndex::frameStats caches per pid set.
 */
FrameStats frameStats(const TraceBundle &bundle, const PidSet &pids);

} // namespace detail

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_FRAMERATE_HH

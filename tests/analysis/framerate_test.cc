/**
 * @file
 * Tests for frame-rate statistics.
 */

#include <gtest/gtest.h>

#include "analysis/framerate.hh"
#include "analysis/session.hh"

namespace {

using namespace deskpar::analysis;
using deskpar::sim::sec;
using deskpar::sim::SimTime;
using deskpar::trace::FrameEvent;
using deskpar::trace::TraceBundle;

TraceBundle
steadyFrames(double fps, double seconds,
             deskpar::trace::Pid pid = 5)
{
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = sec(seconds);
    bundle.numLogicalCpus = 12;
    auto n = static_cast<int>(fps * seconds);
    for (int i = 0; i < n; ++i) {
        FrameEvent f;
        f.timestamp =
            static_cast<SimTime>(i * (1e9 / fps));
        f.pid = pid;
        bundle.frames.push_back(f);
    }
    return bundle;
}

TEST(FrameRate, EmptyTraceZeroStats)
{
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = sec(1);
    auto stats = Session(bundle).frameStats({});
    EXPECT_EQ(stats.frames, 0u);
    EXPECT_DOUBLE_EQ(stats.avgFps, 0.0);
    EXPECT_DOUBLE_EQ(stats.synthesizedShare(), 0.0);
}

TEST(FrameRate, SteadyNinetyFps)
{
    auto bundle = steadyFrames(90.0, 3.0);
    auto stats = Session(bundle).frameStats({5});
    EXPECT_EQ(stats.frames, 270u);
    EXPECT_NEAR(stats.avgFps, 90.0, 0.5);
    EXPECT_NEAR(stats.fpsStddev, 0.0, 0.2);
    EXPECT_NEAR(stats.onePercentLowFps, 90.0, 1.0);
}

TEST(FrameRate, OscillatingRateHasHighStddev)
{
    // Alternate 11 ms / 22 ms gaps (reprojection-style churn).
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = sec(3);
    SimTime t = 0;
    bool slow = false;
    while (t < sec(3)) {
        FrameEvent f;
        f.timestamp = t;
        f.pid = 5;
        bundle.frames.push_back(f);
        t += slow ? 22000000u : 11000000u;
        slow = !slow;
    }
    auto stats = Session(bundle).frameStats({5});
    EXPECT_GT(stats.fpsStddev, 15.0);
    EXPECT_LT(stats.onePercentLowFps, 50.0);
}

TEST(FrameRate, SynthesizedShare)
{
    auto bundle = steadyFrames(90.0, 1.0);
    for (std::size_t i = 0; i < bundle.frames.size(); i += 2)
        bundle.frames[i].synthesized = true;
    auto stats = Session(bundle).frameStats({5});
    EXPECT_NEAR(stats.synthesizedShare(), 0.5, 0.02);
}

TEST(FrameRate, FiltersByPid)
{
    auto bundle = steadyFrames(60.0, 1.0, 5);
    auto other = steadyFrames(30.0, 1.0, 9);
    for (const auto &f : other.frames)
        bundle.frames.push_back(f);
    auto stats5 = Session(bundle).frameStats({5});
    EXPECT_NEAR(stats5.avgFps, 60.0, 1.0);
    auto all = Session(bundle).frameStats({});
    EXPECT_NEAR(all.avgFps, 90.0, 1.5);
}

TEST(FrameRate, SingleFrameNoGaps)
{
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = sec(1);
    FrameEvent f;
    f.timestamp = 100;
    f.pid = 5;
    bundle.frames.push_back(f);
    auto stats = Session(bundle).frameStats({5});
    EXPECT_EQ(stats.frames, 1u);
    EXPECT_DOUBLE_EQ(stats.fpsStddev, 0.0);
}

} // namespace

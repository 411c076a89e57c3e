/**
 * @file
 * Tests for windowed time series.
 */

#include <gtest/gtest.h>

#include "analysis/timeseries.hh"
#include "analysis/session.hh"
#include "sim/logging.hh"

namespace {

using namespace deskpar::analysis;
using deskpar::trace::CSwitchEvent;
using deskpar::trace::FrameEvent;
using deskpar::trace::GpuPacketEvent;
using deskpar::trace::TraceBundle;

TraceBundle
busyFirstHalfBundle()
{
    // One thread busy [0, 500) of a [0, 1000) trace, 4 CPUs.
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = 1000;
    bundle.numLogicalCpus = 4;
    CSwitchEvent in;
    in.timestamp = 0;
    in.cpu = 0;
    in.newPid = 5;
    in.newTid = 51;
    bundle.cswitches.push_back(in);
    CSwitchEvent out;
    out.timestamp = 500;
    out.cpu = 0;
    out.oldPid = 5;
    out.oldTid = 51;
    bundle.cswitches.push_back(out);
    return bundle;
}

TEST(TimeSeries, WindowTiling)
{
    TraceBundle bundle = busyFirstHalfBundle();
    auto series = Session(bundle).concurrencySeries({5}, 250);
    ASSERT_EQ(series.points.size(), 4u);
    EXPECT_EQ(series.points[0].t, 0u);
    EXPECT_EQ(series.points[3].t, 750u);
}

TEST(TimeSeries, ConcurrencyPerWindow)
{
    TraceBundle bundle = busyFirstHalfBundle();
    auto series = Session(bundle).concurrencySeries({5}, 250);
    EXPECT_DOUBLE_EQ(series.points[0].value, 1.0);
    EXPECT_DOUBLE_EQ(series.points[1].value, 1.0);
    EXPECT_DOUBLE_EQ(series.points[2].value, 0.0);
    EXPECT_DOUBLE_EQ(series.points[3].value, 0.0);
}

TEST(TimeSeries, TlpVsConcurrencyOnPartialWindow)
{
    TraceBundle bundle = busyFirstHalfBundle();
    // 400-tick windows: second window busy [400,500) = 25%.
    auto conc = Session(bundle).concurrencySeries({5}, 400);
    auto tlp = Session(bundle).tlpSeries({5}, 400);
    EXPECT_DOUBLE_EQ(conc.points[1].value, 0.25);
    // TLP excludes idle: still 1.0.
    EXPECT_DOUBLE_EQ(tlp.points[1].value, 1.0);
}

TEST(TimeSeries, GpuUtilSeries)
{
    TraceBundle bundle = busyFirstHalfBundle();
    GpuPacketEvent p;
    p.start = 0;
    p.finish = 250;
    p.pid = 5;
    bundle.gpuPackets.push_back(p);
    auto series = Session(bundle).gpuUtilSeries({5}, 500);
    ASSERT_EQ(series.points.size(), 2u);
    EXPECT_DOUBLE_EQ(series.points[0].value, 50.0);
    EXPECT_DOUBLE_EQ(series.points[1].value, 0.0);
}

TEST(TimeSeries, FrameRateSeriesCountsPerSecond)
{
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = deskpar::sim::sec(2);
    bundle.numLogicalCpus = 4;
    // 90 frames in second one, 45 in second two.
    for (int i = 0; i < 90; ++i) {
        FrameEvent f;
        f.timestamp = static_cast<deskpar::sim::SimTime>(
            i * deskpar::sim::sec(1) / 90);
        f.pid = 5;
        bundle.frames.push_back(f);
    }
    for (int i = 0; i < 45; ++i) {
        FrameEvent f;
        f.timestamp =
            deskpar::sim::sec(1) +
            static_cast<deskpar::sim::SimTime>(
                i * deskpar::sim::sec(1) / 45);
        f.pid = 5;
        bundle.frames.push_back(f);
    }
    auto series =
        Session(bundle).frameRateSeries({5}, deskpar::sim::sec(1));
    ASSERT_EQ(series.points.size(), 2u);
    EXPECT_NEAR(series.points[0].value, 90.0, 0.5);
    EXPECT_NEAR(series.points[1].value, 45.0, 0.5);
}

TEST(TimeSeries, MaxAndMeanHelpers)
{
    TimeSeries s;
    s.points = {{0, 1.0}, {1, 5.0}, {2, 3.0}};
    EXPECT_DOUBLE_EQ(s.maxValue(), 5.0);
    EXPECT_DOUBLE_EQ(s.meanValue(), 3.0);
    TimeSeries empty;
    EXPECT_DOUBLE_EQ(empty.maxValue(), 0.0);
    EXPECT_DOUBLE_EQ(empty.meanValue(), 0.0);
}

TEST(TimeSeries, ZeroWindowFatal)
{
    TraceBundle bundle = busyFirstHalfBundle();
    EXPECT_THROW(Session(bundle).tlpSeries({5}, 0),
                 deskpar::FatalError);
}

} // namespace

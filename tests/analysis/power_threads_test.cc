/**
 * @file
 * Tests for the power estimator and the per-thread breakdown.
 */

#include <gtest/gtest.h>

#include "analysis/power.hh"
#include "analysis/session.hh"
#include "analysis/threads.hh"

namespace {

using namespace deskpar;
using namespace deskpar::analysis;
using deskpar::trace::CSwitchEvent;
using deskpar::trace::TraceBundle;

CSwitchEvent
cs(sim::SimTime ts, trace::CpuId cpu, trace::Pid oldP,
   trace::Tid oldT, trace::Pid newP, trace::Tid newT)
{
    CSwitchEvent e;
    e.timestamp = ts;
    e.cpu = cpu;
    e.oldPid = oldP;
    e.oldTid = oldT;
    e.newPid = newP;
    e.newTid = newT;
    return e;
}

TraceBundle
window(sim::SimTime stop)
{
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = stop;
    bundle.numLogicalCpus = 12;
    bundle.processNames[0] = "Idle";
    bundle.processNames[5] = "app";
    return bundle;
}

TEST(Power, IdleMachineBurnsIdleWatts)
{
    TraceBundle bundle = window(sim::sec(1));
    auto p = Session(bundle).power(sim::CpuSpec::i78700K(),
                                   sim::GpuSpec::gtx1080Ti());
    EXPECT_DOUBLE_EQ(p.cpuWatts, 8.0);
    EXPECT_DOUBLE_EQ(p.gpuWatts, 12.0);
    EXPECT_DOUBLE_EQ(p.totalWatts(), 20.0);
    EXPECT_DOUBLE_EQ(p.energyJoules(), 20.0);
}

TEST(Power, OneCoreBusyHalfTime)
{
    TraceBundle bundle = window(sim::sec(1));
    bundle.cswitches.push_back(cs(0, 0, 0, 0, 5, 51));
    bundle.cswitches.push_back(
        cs(sim::sec(0.5), 0, 5, 51, 0, 0));
    auto p = Session(bundle).power(sim::CpuSpec::i78700K(),
                                   sim::GpuSpec::gtx1080Ti());
    // idle 8 + (95-8)/6 cores * 0.5 core-seconds.
    EXPECT_NEAR(p.cpuWatts, 8.0 + (87.0 / 6.0) * 0.5, 1e-9);
}

TEST(Power, SmtSiblingIsNearlyFree)
{
    // One core fully busy on one thread...
    TraceBundle solo = window(sim::sec(1));
    solo.cswitches.push_back(cs(0, 0, 0, 0, 5, 51));
    auto p1 = Session(solo).power(sim::CpuSpec::i78700K(),
                                  sim::GpuSpec::gtx1080Ti());

    // ...versus both hardware threads of the same core busy.
    TraceBundle both = window(sim::sec(1));
    both.cswitches.push_back(cs(0, 0, 0, 0, 5, 51));
    both.cswitches.push_back(cs(0, 1, 0, 0, 5, 52));
    auto p2 = Session(both).power(sim::CpuSpec::i78700K(),
                                  sim::GpuSpec::gtx1080Ti());

    double per_core = 87.0 / 6.0;
    EXPECT_NEAR(p2.cpuWatts - p1.cpuWatts, per_core * 0.07, 1e-9);

    // A second *physical* core costs the full per-core power.
    TraceBundle spread = window(sim::sec(1));
    spread.cswitches.push_back(cs(0, 0, 0, 0, 5, 51));
    spread.cswitches.push_back(cs(0, 2, 0, 0, 5, 52));
    auto p3 = Session(spread).power(sim::CpuSpec::i78700K(),
                                    sim::GpuSpec::gtx1080Ti());
    EXPECT_NEAR(p3.cpuWatts - p1.cpuWatts, per_core, 1e-9);
}

TEST(Power, GpuBusyScalesToTdp)
{
    TraceBundle bundle = window(sim::sec(1));
    trace::GpuPacketEvent g;
    g.start = 0;
    g.finish = sim::sec(1);
    g.pid = 5;
    bundle.gpuPackets.push_back(g);
    auto p = Session(bundle).power(sim::CpuSpec::i78700K(),
                                   sim::GpuSpec::gtx1080Ti());
    EXPECT_DOUBLE_EQ(p.gpuWatts, 250.0);
}

TEST(Power, EnergyPerUnit)
{
    PowerEstimate p;
    p.cpuWatts = 50.0;
    p.gpuWatts = 50.0;
    p.seconds = 2.0;
    EXPECT_DOUBLE_EQ(p.energyJoules(), 200.0);
    EXPECT_DOUBLE_EQ(p.energyPer(100.0), 2.0);
    EXPECT_DOUBLE_EQ(p.energyPer(0.0), 0.0);
}

TEST(Threads, BreakdownAccumulatesBusyTimeAndDispatches)
{
    TraceBundle bundle = window(1000);
    bundle.threadEvents.push_back(
        {0, 5, 51, true, "worker-a"});
    // 51 runs [0,300) and [600,800) on cpu0; 52 runs [100,500) on 1.
    bundle.cswitches.push_back(cs(0, 0, 0, 0, 5, 51));
    bundle.cswitches.push_back(cs(300, 0, 5, 51, 0, 0));
    bundle.cswitches.push_back(cs(600, 0, 0, 0, 5, 51));
    bundle.cswitches.push_back(cs(800, 0, 5, 51, 0, 0));
    bundle.cswitches.push_back(cs(100, 1, 0, 0, 5, 52));
    bundle.cswitches.push_back(cs(500, 1, 5, 52, 0, 0));

    auto threads = threadBreakdown(bundle, {5});
    ASSERT_EQ(threads.size(), 2u);
    EXPECT_EQ(threads[0].tid, 51u);
    EXPECT_EQ(threads[0].busyTime, 500u);
    EXPECT_EQ(threads[0].dispatches, 2u);
    EXPECT_EQ(threads[0].threadName, "worker-a");
    EXPECT_EQ(threads[0].processName, "app");
    EXPECT_EQ(threads[1].tid, 52u);
    EXPECT_EQ(threads[1].busyTime, 400u);
    EXPECT_DOUBLE_EQ(threads[1].busyShare(1000), 0.4);
}

TEST(Threads, OpenIntervalChargedToStopTime)
{
    TraceBundle bundle = window(1000);
    bundle.cswitches.push_back(cs(400, 3, 0, 0, 5, 51));
    auto threads = threadBreakdown(bundle, {5});
    ASSERT_EQ(threads.size(), 1u);
    EXPECT_EQ(threads[0].busyTime, 600u);
}

TEST(Threads, TopThreadsTruncates)
{
    TraceBundle bundle = window(1000);
    for (unsigned i = 0; i < 6; ++i) {
        bundle.cswitches.push_back(
            cs(0, i, 0, 0, 5, 50 + i));
        bundle.cswitches.push_back(
            cs(100 * (i + 1), i, 5, 50 + i, 0, 0));
    }
    auto top = topThreads(bundle, {5}, 3);
    ASSERT_EQ(top.size(), 3u);
    // Sorted by descending busy time: tids 55, 54, 53.
    EXPECT_EQ(top[0].tid, 55u);
    EXPECT_EQ(top[2].tid, 53u);
}

TEST(Threads, FiltersForeignPids)
{
    TraceBundle bundle = window(1000);
    bundle.cswitches.push_back(cs(0, 0, 0, 0, 9, 91));
    auto threads = threadBreakdown(bundle, {5});
    EXPECT_TRUE(threads.empty());
    auto all = threadBreakdown(bundle, {});
    EXPECT_EQ(all.size(), 1u);
}

} // namespace

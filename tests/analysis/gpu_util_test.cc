/**
 * @file
 * Tests for GPU-utilization computation (aggregate packet ratio,
 * busy union, overlap detection), and the index's one-pass busy
 * union against the legacy collect-sort-merge.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <string>
#include <utility>
#include <vector>

#include "analysis/gpu_util.hh"
#include "analysis/session.hh"
#include "reference/analysis_legacy.hh"
#include "sim/logging.hh"

namespace {

using namespace deskpar::analysis;
using deskpar::trace::GpuEngineId;
using deskpar::trace::GpuPacketEvent;
using deskpar::trace::TraceBundle;

GpuPacketEvent
packet(deskpar::sim::SimTime start, deskpar::sim::SimTime finish,
       deskpar::trace::Pid pid,
       GpuEngineId engine = GpuEngineId::Graphics3D)
{
    GpuPacketEvent e;
    e.start = start;
    e.finish = finish;
    e.pid = pid;
    e.engine = engine;
    return e;
}

TraceBundle
windowBundle(deskpar::sim::SimTime stop)
{
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = stop;
    bundle.numLogicalCpus = 12;
    return bundle;
}

TEST(GpuUtil, NoPacketsZeroUtil)
{
    TraceBundle bundle = windowBundle(1000);
    auto util = Session(bundle).gpuUtil({});
    EXPECT_DOUBLE_EQ(util.aggregateRatio, 0.0);
    EXPECT_DOUBLE_EQ(util.busyRatio, 0.0);
    EXPECT_DOUBLE_EQ(util.utilizationPercent(), 0.0);
    EXPECT_FALSE(util.overlapped);
    EXPECT_EQ(util.packetCount, 0u);
}

TEST(GpuUtil, SinglePacketRatio)
{
    TraceBundle bundle = windowBundle(1000);
    bundle.gpuPackets.push_back(packet(100, 350, 5));
    auto util = Session(bundle).gpuUtil({5});
    EXPECT_DOUBLE_EQ(util.aggregateRatio, 0.25);
    EXPECT_DOUBLE_EQ(util.busyRatio, 0.25);
    EXPECT_DOUBLE_EQ(util.utilizationPercent(), 25.0);
    EXPECT_FALSE(util.overlapped);
}

TEST(GpuUtil, DisjointPacketsAccumulate)
{
    TraceBundle bundle = windowBundle(1000);
    bundle.gpuPackets.push_back(packet(0, 100, 5));
    bundle.gpuPackets.push_back(packet(200, 400, 5));
    auto util = Session(bundle).gpuUtil({5});
    EXPECT_DOUBLE_EQ(util.aggregateRatio, 0.3);
    EXPECT_DOUBLE_EQ(util.busyRatio, 0.3);
}

TEST(GpuUtil, OverlapDetectedAndCapped)
{
    // Two full-window packets on different queue slots: aggregate 2.0
    // (the paper's PhoenixMiner case), reported as 100% + flag.
    TraceBundle bundle = windowBundle(1000);
    bundle.gpuPackets.push_back(
        packet(0, 1000, 5, GpuEngineId::Compute));
    bundle.gpuPackets.push_back(
        packet(0, 1000, 5, GpuEngineId::Compute));
    auto util = Session(bundle).gpuUtil({5});
    EXPECT_DOUBLE_EQ(util.aggregateRatio, 2.0);
    EXPECT_DOUBLE_EQ(util.busyRatio, 1.0);
    EXPECT_DOUBLE_EQ(util.utilizationPercent(), 100.0);
    EXPECT_TRUE(util.overlapped);
}

TEST(GpuUtil, PacketsClampedToWindow)
{
    TraceBundle bundle = windowBundle(1000);
    bundle.gpuPackets.push_back(packet(900, 1500, 5));
    auto util = Session(bundle).gpuUtil({5});
    EXPECT_DOUBLE_EQ(util.aggregateRatio, 0.1);
}

TEST(GpuUtil, PacketsOutsideWindowIgnored)
{
    TraceBundle bundle = windowBundle(1000);
    bundle.gpuPackets.push_back(packet(2000, 2500, 5));
    auto util = Session(bundle).gpuUtil({5});
    EXPECT_EQ(util.packetCount, 0u);
    EXPECT_DOUBLE_EQ(util.aggregateRatio, 0.0);
}

TEST(GpuUtil, FiltersByPid)
{
    TraceBundle bundle = windowBundle(1000);
    bundle.gpuPackets.push_back(packet(0, 500, 5));
    bundle.gpuPackets.push_back(packet(0, 500, 9));
    auto util = Session(bundle).gpuUtil({5});
    EXPECT_DOUBLE_EQ(util.aggregateRatio, 0.5);
    auto all = Session(bundle).gpuUtil({});
    EXPECT_DOUBLE_EQ(all.aggregateRatio, 1.0);
}

TEST(GpuUtil, PerEngineBreakdown)
{
    TraceBundle bundle = windowBundle(1000);
    bundle.gpuPackets.push_back(
        packet(0, 200, 5, GpuEngineId::Graphics3D));
    bundle.gpuPackets.push_back(
        packet(0, 300, 5, GpuEngineId::VideoDecode));
    auto util = Session(bundle).gpuUtil({5});
    EXPECT_DOUBLE_EQ(
        util.perEngine[static_cast<unsigned>(
            GpuEngineId::Graphics3D)],
        0.2);
    EXPECT_DOUBLE_EQ(
        util.perEngine[static_cast<unsigned>(
            GpuEngineId::VideoDecode)],
        0.3);
    EXPECT_DOUBLE_EQ(
        util.perEngine[static_cast<unsigned>(GpuEngineId::Compute)],
        0.0);
}

TEST(GpuUtil, SubWindow)
{
    TraceBundle bundle = windowBundle(1000);
    bundle.gpuPackets.push_back(packet(0, 600, 5));
    auto util = Session(bundle).gpuUtil({5}, 400, 800);
    EXPECT_DOUBLE_EQ(util.aggregateRatio, 0.5);
}

TEST(GpuUtil, EmptyWindowFatal)
{
    TraceBundle bundle = windowBundle(1000);
    EXPECT_THROW(Session(bundle).gpuUtil({}, 50, 50),
                 deskpar::FatalError);
}

/** Every field of @p got equals @p want, bit for bit. */
void
expectSameUtil(const GpuUtilization &got, const GpuUtilization &want)
{
    EXPECT_EQ(got.aggregateRatio, want.aggregateRatio);
    EXPECT_EQ(got.busyRatio, want.busyRatio);
    EXPECT_EQ(got.perEngine, want.perEngine);
    EXPECT_EQ(got.packetCount, want.packetCount);
    EXPECT_EQ(got.overlapped, want.overlapped);
}

/**
 * Start-sorted packets in every union shape: nested, overlapping,
 * touching end-to-start, disjoint, zero-length, and packets that
 * clamp to nothing in most windows.
 */
TraceBundle
unionBundle()
{
    TraceBundle bundle = windowBundle(10'000);
    auto add = [&](deskpar::sim::SimTime start,
                   deskpar::sim::SimTime finish, deskpar::trace::Pid pid,
                   GpuEngineId engine) {
        bundle.gpuPackets.push_back(packet(start, finish, pid, engine));
    };
    add(0, 100, 5, GpuEngineId::Graphics3D);       // clamps away late
    add(200, 1'000, 5, GpuEngineId::Graphics3D);   // outer
    add(300, 400, 5, GpuEngineId::Compute);        // nested
    add(300, 300, 5, GpuEngineId::Copy);           // zero length
    add(350, 1'200, 9, GpuEngineId::VideoDecode);  // overlapping
    add(1'200, 1'500, 5, GpuEngineId::Compute);    // touching
    add(1'500, 1'500, 9, GpuEngineId::Copy);       // touching, empty
    add(2'000, 2'100, 5, GpuEngineId::Graphics3D); // disjoint
    add(2'000, 2'050, 9, GpuEngineId::Graphics3D); // equal start
    add(2'100, 9'000, 5, GpuEngineId::VideoEncode); // long, touching
    add(3'000, 3'500, 9, GpuEngineId::Compute);    // nested in long
    add(8'999, 9'500, 5, GpuEngineId::Copy);       // past the long
    add(9'800, 12'000, 9, GpuEngineId::Compute);   // past stopTime
    return bundle;
}

std::vector<std::pair<deskpar::sim::SimTime, deskpar::sim::SimTime>>
unionWindows()
{
    std::vector<std::pair<deskpar::sim::SimTime, deskpar::sim::SimTime>>
        windows = {{0, 10'000},   {150, 199},     {250, 1'300},
                   {1'200, 1'500}, {1'500, 2'000}, {2'050, 2'100},
                   {2'500, 2'600}, {100, 9'999},   {9'000, 9'001},
                   {9'500, 20'000}};
    for (deskpar::sim::SimTime t = 0; t < 10'000; t += 173)
        windows.emplace_back(t, t + 1 + (t * 7) % 3'000);
    return windows;
}

TEST(GpuUnion, OnePassMatchesLegacyOnStartSortedPackets)
{
    TraceBundle bundle = unionBundle();
    ASSERT_TRUE(std::is_sorted(
        bundle.gpuPackets.begin(), bundle.gpuPackets.end(),
        [](const GpuPacketEvent &a, const GpuPacketEvent &b) {
            return a.start < b.start;
        }));
    Session session(bundle);
    for (const PidSet &pids : {PidSet{}, PidSet{5}, PidSet{9}}) {
        for (const auto &[t0, t1] : unionWindows()) {
            SCOPED_TRACE("window [" + std::to_string(t0) + ", " +
                         std::to_string(t1) + ") pids " +
                         std::to_string(pids.size()));
            GpuUtilization want =
                legacy::computeGpuUtil(bundle, pids, t0, t1);
            expectSameUtil(session.gpuUtil(pids, t0, t1), want);
            expectSameUtil(
                detail::foldGpuPackets(bundle, pids, t0, t1, 0,
                                       bundle.gpuPackets.size(),
                                       /*startSorted=*/true),
                want);
        }
    }
}

TEST(GpuUnion, UnsortedPacketsTakeTheSortPath)
{
    TraceBundle bundle = unionBundle();
    std::reverse(bundle.gpuPackets.begin(), bundle.gpuPackets.end());
    // The running merge is wrong on this order, so agreement below
    // shows the index did not take it.
    GpuUtilization whole =
        legacy::computeGpuUtil(bundle, {}, 0, 10'000);
    EXPECT_NE(detail::foldGpuPackets(bundle, {}, 0, 10'000, 0,
                                     bundle.gpuPackets.size(),
                                     /*startSorted=*/true)
                  .busyRatio,
              whole.busyRatio);

    Session session(bundle);
    for (const PidSet &pids : {PidSet{}, PidSet{5}, PidSet{9}}) {
        for (const auto &[t0, t1] : unionWindows()) {
            SCOPED_TRACE("window [" + std::to_string(t0) + ", " +
                         std::to_string(t1) + ")");
            expectSameUtil(session.gpuUtil(pids, t0, t1),
                           legacy::computeGpuUtil(bundle, pids, t0, t1));
        }
    }
}

} // namespace

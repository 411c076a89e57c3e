/**
 * @file
 * Tests for trace merging and sorting.
 */

#include <gtest/gtest.h>

#include <utility>
#include <vector>

#include "trace/merge.hh"

namespace {

using namespace deskpar;
using namespace deskpar::trace;

TraceBundle
bundleA()
{
    TraceBundle a;
    a.startTime = 0;
    a.stopTime = 1000;
    a.numLogicalCpus = 12;
    a.processNames[5] = "alpha";
    CSwitchEvent e;
    e.timestamp = 100;
    e.cpu = 0;
    e.newPid = 5;
    e.newTid = 51;
    a.cswitches.push_back(e);
    MarkerEvent m;
    m.timestamp = 500;
    m.label = "a-marker";
    a.markers.push_back(m);
    return a;
}

TraceBundle
bundleB()
{
    TraceBundle b;
    b.startTime = 500;
    b.stopTime = 2000;
    b.numLogicalCpus = 12;
    b.processNames[9] = "beta";
    CSwitchEvent e;
    e.timestamp = 50;
    e.cpu = 1;
    e.newPid = 9;
    e.newTid = 91;
    b.cswitches.push_back(e);
    GpuPacketEvent g;
    g.start = 700;
    g.finish = 900;
    g.pid = 9;
    b.gpuPackets.push_back(g);
    return b;
}

TEST(Merge, WindowIsUnionAndStreamsConcatenateSorted)
{
    ParseResult<TraceBundle> result =
        mergeBundlesChecked(bundleA(), bundleB());
    ASSERT_TRUE(result.ok()) << result.error().str();
    const TraceBundle &merged = *result;
    EXPECT_EQ(merged.startTime, 0u);
    EXPECT_EQ(merged.stopTime, 2000u);
    ASSERT_EQ(merged.cswitches.size(), 2u);
    // Sorted by time: B's event (50) before A's (100).
    EXPECT_EQ(merged.cswitches[0].newPid, 9u);
    EXPECT_EQ(merged.cswitches[1].newPid, 5u);
    EXPECT_EQ(merged.processNames.at(5), "alpha");
    EXPECT_EQ(merged.processNames.at(9), "beta");
    EXPECT_EQ(merged.gpuPackets.size(), 1u);
    EXPECT_EQ(merged.markers.size(), 1u);
}

TEST(Merge, CpuCountMismatchFatal)
{
    TraceBundle b = bundleB();
    b.numLogicalCpus = 4;
    ParseResult<TraceBundle> result = mergeBundlesChecked(bundleA(), b);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().section, "merge");
    EXPECT_EQ(result.error().reason,
              "logical-CPU counts differ (12 vs 4)");
}

TEST(Merge, PidNameConflictFatal)
{
    TraceBundle a = bundleA();
    TraceBundle b = bundleB();
    b.processNames[5] = "not-alpha";
    ParseResult<TraceBundle> result = mergeBundlesChecked(a, b);
    ASSERT_FALSE(result.ok());
    EXPECT_EQ(result.error().section, "merge");
    EXPECT_EQ(result.error().reason,
              "pid 5 names conflict ('alpha' vs 'not-alpha')");
}

TEST(Merge, SamePidSameNameIsFine)
{
    TraceBundle a = bundleA();
    TraceBundle b = bundleB();
    b.processNames[5] = "alpha";
    ParseResult<TraceBundle> result = mergeBundlesChecked(a, b);
    ASSERT_TRUE(result.ok()) << result.error().str();
    EXPECT_EQ(result->processNames.size(), 2u);
}

TEST(Merge, SortBundleOrdersEveryStream)
{
    TraceBundle bundle = bundleA();
    CSwitchEvent early;
    early.timestamp = 10;
    early.cpu = 2;
    early.newPid = 5;
    early.newTid = 52;
    bundle.cswitches.push_back(early);
    MarkerEvent m;
    m.timestamp = 1;
    m.label = "first";
    bundle.markers.push_back(m);

    sortBundle(bundle);
    EXPECT_EQ(bundle.cswitches.front().timestamp, 10u);
    EXPECT_EQ(bundle.markers.front().label, "first");
}

/** The fields of @p events that order and ties can tell apart. */
std::vector<std::pair<SimTime, Tid>>
switchKeys(const std::vector<CSwitchEvent> &events)
{
    std::vector<std::pair<SimTime, Tid>> keys;
    for (const CSwitchEvent &e : events)
        keys.emplace_back(e.timestamp, e.newTid);
    return keys;
}

TEST(Merge, SortBundleLeavesAnOrderedBundleUnchanged)
{
    // Equal timestamps in a deliberate order: any reordering of the
    // ties would show in the tid column.
    TraceBundle bundle = bundleA();
    for (Tid tid : {9u, 3u, 7u}) {
        CSwitchEvent e;
        e.timestamp = 200;
        e.cpu = 1;
        e.newPid = 5;
        e.newTid = tid;
        bundle.cswitches.push_back(e);
    }
    GpuPacketEvent g;
    g.start = 300;
    g.finish = 310;
    bundle.gpuPackets = {g, g};
    bundle.gpuPackets[1].packetId = 1;
    auto before = switchKeys(bundle.cswitches);

    sortBundle(bundle);
    EXPECT_EQ(switchKeys(bundle.cswitches), before);
    EXPECT_EQ(bundle.gpuPackets[0].packetId, 0u);
    EXPECT_EQ(bundle.gpuPackets[1].packetId, 1u);
}

TEST(Merge, CanonicalizeSettlesAHeaderlessBundle)
{
    TraceBundle bundle = bundleB(); // one switch on cpu 1 at t = 50
    bundle.startTime = 0;
    bundle.stopTime = 0;
    bundle.numLogicalCpus = 0;
    CSwitchEvent e = bundle.cswitches.front();
    e.timestamp = 20;
    e.cpu = 6;
    bundle.cswitches.push_back(e); // out of order

    canonicalize(bundle);
    EXPECT_EQ(bundle.cswitches.front().timestamp, 20u);
    EXPECT_EQ(bundle.numLogicalCpus, 7u);
    // The extent covers every stream: the GPU packet ends at 900.
    EXPECT_EQ(bundle.startTime, 20u);
    EXPECT_EQ(bundle.stopTime, 900u);
}

TEST(Merge, CanonicalizeKeepsAHeaderAndCapsTheCpuCount)
{
    TraceBundle bundle = bundleA();
    canonicalize(bundle);
    EXPECT_EQ(bundle.numLogicalCpus, 12u);
    EXPECT_EQ(bundle.startTime, 0u);
    EXPECT_EQ(bundle.stopTime, 1000u);

    // Ids at or past the bound leave the cap, never a larger count.
    bundle.numLogicalCpus = 0;
    bundle.cswitches.front().cpu = 70000;
    canonicalize(bundle);
    EXPECT_EQ(bundle.numLogicalCpus, kMaxLogicalCpus);

    // No switches: no count to settle (concurrency refuses it).
    TraceBundle quiet;
    quiet.markers = bundleA().markers;
    canonicalize(quiet);
    EXPECT_EQ(quiet.numLogicalCpus, 0u);
    EXPECT_EQ(quiet.startTime, 500u);
    EXPECT_EQ(quiet.stopTime, 500u);
}

} // namespace

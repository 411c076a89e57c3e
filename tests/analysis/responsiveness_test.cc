/**
 * @file
 * Tests for input-to-dispatch responsiveness analysis.
 */

#include <gtest/gtest.h>

#include "analysis/responsiveness.hh"
#include "analysis/session.hh"

namespace {

using namespace deskpar::analysis;
using deskpar::sim::SimTime;
using deskpar::trace::CSwitchEvent;
using deskpar::trace::MarkerEvent;
using deskpar::trace::TraceBundle;

TraceBundle
makeBundle()
{
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = 10000;
    bundle.numLogicalCpus = 4;
    return bundle;
}

void
addInput(TraceBundle &bundle, SimTime t)
{
    MarkerEvent m;
    m.timestamp = t;
    m.label = "input:1";
    bundle.markers.push_back(m);
}

void
addDispatch(TraceBundle &bundle, SimTime t, deskpar::trace::Pid pid)
{
    CSwitchEvent e;
    e.timestamp = t;
    e.cpu = 0;
    e.newPid = pid;
    e.newTid = pid * 10;
    bundle.cswitches.push_back(e);
}

TEST(Responsiveness, EmptyTrace)
{
    TraceBundle bundle = makeBundle();
    auto r = Session(bundle).responsiveness({5});
    EXPECT_EQ(r.inputs, 0u);
    EXPECT_EQ(r.answered, 0u);
    EXPECT_DOUBLE_EQ(r.meanLatencyMs(), 0.0);
}

TEST(Responsiveness, MeasuresInputToDispatchGap)
{
    TraceBundle bundle = makeBundle();
    addInput(bundle, 1000);
    addDispatch(bundle, 1500, 5);
    addInput(bundle, 4000);
    addDispatch(bundle, 4100, 5);
    auto r = Session(bundle).responsiveness({5});
    EXPECT_EQ(r.inputs, 2u);
    EXPECT_EQ(r.answered, 2u);
    EXPECT_DOUBLE_EQ(r.latency.mean(), (500.0 + 100.0) / 2.0);
    EXPECT_DOUBLE_EQ(r.latency.max(), 500.0);
}

TEST(Responsiveness, IgnoresForeignDispatches)
{
    TraceBundle bundle = makeBundle();
    addInput(bundle, 1000);
    addDispatch(bundle, 1100, 9); // other app
    addDispatch(bundle, 1800, 5);
    auto r = Session(bundle).responsiveness({5});
    ASSERT_EQ(r.answered, 1u);
    EXPECT_DOUBLE_EQ(r.latency.mean(), 800.0);
}

TEST(Responsiveness, UnansweredInputCounted)
{
    TraceBundle bundle = makeBundle();
    addInput(bundle, 9000); // no dispatch follows
    auto r = Session(bundle).responsiveness({5});
    EXPECT_EQ(r.inputs, 1u);
    EXPECT_EQ(r.answered, 0u);
}

TEST(Responsiveness, NonInputMarkersIgnored)
{
    TraceBundle bundle = makeBundle();
    MarkerEvent m;
    m.timestamp = 100;
    m.label = "phase: render";
    bundle.markers.push_back(m);
    addDispatch(bundle, 200, 5);
    auto r = Session(bundle).responsiveness({5});
    EXPECT_EQ(r.inputs, 0u);
}

TEST(Responsiveness, DispatchAtSameInstantIsZeroLatency)
{
    TraceBundle bundle = makeBundle();
    addInput(bundle, 2000);
    addDispatch(bundle, 2000, 5);
    auto r = Session(bundle).responsiveness({5});
    ASSERT_EQ(r.answered, 1u);
    EXPECT_DOUBLE_EQ(r.latency.mean(), 0.0);
}

TEST(Responsiveness, EmptyPidSetMatchesAnyApp)
{
    TraceBundle bundle = makeBundle();
    addInput(bundle, 1000);
    addDispatch(bundle, 1250, 9);
    auto r = Session(bundle).responsiveness({});
    EXPECT_EQ(r.answered, 1u);
    EXPECT_DOUBLE_EQ(r.latency.mean(), 250.0);
}

} // namespace

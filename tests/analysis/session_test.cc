/**
 * @file
 * Tests for the analysis::Session facade: queries give the expected
 * metrics, the index is built once and shared, and both ownership
 * modes work.
 */

#include <gtest/gtest.h>

#include "analysis/session.hh"
#include "trace/filter.hh"
#include "trace/session.hh"

namespace {

using namespace deskpar;
using trace::TraceBundle;

void
cswitch(TraceBundle &bundle, sim::SimTime t, unsigned cpu,
        trace::Pid oldPid, trace::Tid oldTid, trace::Pid newPid,
        trace::Tid newTid)
{
    trace::CSwitchEvent cs;
    cs.timestamp = t;
    cs.cpu = cpu;
    cs.oldPid = oldPid;
    cs.oldTid = oldTid;
    cs.newPid = newPid;
    cs.newTid = newTid;
    cs.readyTime = t;
    bundle.cswitches.push_back(cs);
}

/**
 * app.main (pid 1) runs two threads: cpu 0 over [0,500), cpu 1 over
 * [0,250). Concurrency is 2 for a quarter of the window and 1 for
 * another quarter, so TLP = (2*0.25 + 1*0.25) / 0.5 = 1.5.
 */
TraceBundle
sampleBundle()
{
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = 1000;
    bundle.numLogicalCpus = 4;
    bundle.processNames[0] = "Idle";
    bundle.processNames[1] = "app.main";
    bundle.processNames[2] = "other";

    cswitch(bundle, 0, 0, 0, 0, 1, 11);
    cswitch(bundle, 0, 1, 0, 0, 1, 12);
    cswitch(bundle, 0, 2, 0, 0, 2, 21);
    cswitch(bundle, 250, 1, 1, 12, 0, 0);
    cswitch(bundle, 500, 0, 1, 11, 0, 0);
    cswitch(bundle, 750, 2, 2, 21, 0, 0);

    trace::FrameEvent frame;
    frame.pid = 1;
    frame.timestamp = 100;
    frame.frameId = 1;
    bundle.frames.push_back(frame);
    frame.timestamp = 300;
    frame.frameId = 2;
    bundle.frames.push_back(frame);

    trace::GpuPacketEvent packet;
    packet.pid = 1;
    packet.start = 100;
    packet.finish = 400;
    packet.engine = trace::GpuEngineId::Compute;
    packet.packetId = 1;
    bundle.gpuPackets.push_back(packet);

    return bundle;
}

TEST(Session, ComputesTheExpectedTlp)
{
    TraceBundle bundle = sampleBundle();
    analysis::Session session(bundle);
    analysis::ConcurrencyProfile profile =
        session.concurrency(session.pids("app"));
    EXPECT_NEAR(profile.tlp(), 1.5, 1e-9);
    EXPECT_EQ(profile.maxConcurrency(), 2u);
}

TEST(Session, IndexIsBuiltOnceAndShared)
{
    TraceBundle bundle = sampleBundle();
    analysis::Session session(bundle);
    const analysis::TraceIndex *first = &session.index();
    session.app(session.pids("app"));
    EXPECT_EQ(first, &session.index());
}

TEST(Session, OwningConstructorKeepsBundleAlive)
{
    analysis::Session session(sampleBundle());
    EXPECT_EQ(session.bundle().numLogicalCpus, 4u);
    analysis::ConcurrencyProfile profile =
        session.concurrency(session.pids("app"));
    EXPECT_NEAR(profile.tlp(), 1.5, 1e-9);
}

TEST(Session, EmptyPrefixSelectsAllApplicationPids)
{
    TraceBundle bundle = sampleBundle();
    analysis::Session session(bundle);
    EXPECT_EQ(session.pids(""), trace::allApplicationPids(bundle));
    EXPECT_EQ(session.pids("app"),
              trace::pidsWithPrefix(bundle, "app"));
}

TEST(Session, AppByPrefixMatchesAppByPidSet)
{
    TraceBundle bundle = sampleBundle();
    analysis::Session session(bundle);
    analysis::AppMetrics byPrefix = session.app(std::string("app"));
    analysis::AppMetrics byPids = session.app(session.pids("app"));
    EXPECT_DOUBLE_EQ(byPrefix.tlp(), byPids.tlp());
    EXPECT_EQ(byPrefix.frames.frames, byPids.frames.frames);
}

} // namespace

/**
 * @file
 * Tests for the TLP computation (the paper's Equation 1), including
 * hand-computed traces and property sweeps.
 */

#include <gtest/gtest.h>

#include "analysis/tlp.hh"
#include "analysis/session.hh"
#include "sim/logging.hh"

namespace {

using namespace deskpar::analysis;
using deskpar::trace::CSwitchEvent;
using deskpar::trace::TraceBundle;

CSwitchEvent
cs(deskpar::sim::SimTime ts, deskpar::trace::CpuId cpu,
   deskpar::trace::Pid oldP, deskpar::trace::Pid newP)
{
    CSwitchEvent e;
    e.timestamp = ts;
    e.cpu = cpu;
    e.oldPid = oldP;
    e.oldTid = oldP ? oldP * 10 : 0;
    e.newPid = newP;
    e.newTid = newP ? newP * 10 : 0;
    return e;
}

TraceBundle
emptyBundle(unsigned cpus, deskpar::sim::SimTime stop)
{
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = stop;
    bundle.numLogicalCpus = cpus;
    return bundle;
}

TEST(Tlp, FullyIdleTraceIsZero)
{
    TraceBundle bundle = emptyBundle(4, 1000);
    auto profile = Session(bundle).concurrency({});
    EXPECT_DOUBLE_EQ(profile.idleFraction(), 1.0);
    EXPECT_DOUBLE_EQ(profile.tlp(), 0.0);
    EXPECT_EQ(profile.maxConcurrency(), 0u);
}

TEST(Tlp, SingleThreadHalfWindow)
{
    // One thread on cpu 0 for [0, 500) of a 1000-tick window.
    TraceBundle bundle = emptyBundle(4, 1000);
    bundle.cswitches.push_back(cs(0, 0, 0, 5));
    bundle.cswitches.push_back(cs(500, 0, 5, 0));
    auto profile = Session(bundle).concurrency({5});

    EXPECT_DOUBLE_EQ(profile.c[0], 0.5);
    EXPECT_DOUBLE_EQ(profile.c[1], 0.5);
    // TLP = (0.5 * 1) / (1 - 0.5) = 1.
    EXPECT_DOUBLE_EQ(profile.tlp(), 1.0);
    EXPECT_EQ(profile.maxConcurrency(), 1u);
    EXPECT_DOUBLE_EQ(profile.utilization(), 0.5);
}

TEST(Tlp, HandComputedEquationOne)
{
    // Window 1000. cpu0 busy [0,600); cpu1 busy [200,600).
    // c2 = 400/1000, c1 = 200/1000, c0 = 400/1000.
    // TLP = (0.2*1 + 0.4*2) / (1 - 0.4) = 1.0 / 0.6 = 1.6667.
    TraceBundle bundle = emptyBundle(4, 1000);
    bundle.cswitches.push_back(cs(0, 0, 0, 5));
    bundle.cswitches.push_back(cs(200, 1, 0, 5));
    bundle.cswitches.push_back(cs(600, 0, 5, 0));
    bundle.cswitches.push_back(cs(600, 1, 5, 0));
    auto profile = Session(bundle).concurrency({5});

    EXPECT_DOUBLE_EQ(profile.c[0], 0.4);
    EXPECT_DOUBLE_EQ(profile.c[1], 0.2);
    EXPECT_DOUBLE_EQ(profile.c[2], 0.4);
    EXPECT_NEAR(profile.tlp(), 1.0 / 0.6, 1e-12);
    EXPECT_EQ(profile.maxConcurrency(), 2u);
}

TEST(Tlp, IdleTimeDoesNotDiluteTlp)
{
    // Two threads always running together, but only 10% of the time.
    TraceBundle bundle = emptyBundle(4, 10000);
    bundle.cswitches.push_back(cs(0, 0, 0, 5));
    bundle.cswitches.push_back(cs(0, 1, 0, 5));
    bundle.cswitches.push_back(cs(1000, 0, 5, 0));
    bundle.cswitches.push_back(cs(1000, 1, 5, 0));
    auto profile = Session(bundle).concurrency({5});
    EXPECT_DOUBLE_EQ(profile.tlp(), 2.0);
    EXPECT_DOUBLE_EQ(profile.idleFraction(), 0.9);
}

TEST(Tlp, FiltersToTargetPids)
{
    // Target runs on cpu0 [0,500); another app on cpu1 [0,1000).
    TraceBundle bundle = emptyBundle(4, 1000);
    bundle.cswitches.push_back(cs(0, 0, 0, 5));
    bundle.cswitches.push_back(cs(0, 1, 0, 9));
    bundle.cswitches.push_back(cs(500, 0, 5, 0));
    auto app = Session(bundle).concurrency({5});
    EXPECT_DOUBLE_EQ(app.c[1], 0.5);
    EXPECT_DOUBLE_EQ(app.tlp(), 1.0);

    // Empty pid set = system-wide: both count.
    auto system = Session(bundle).concurrency({});
    EXPECT_DOUBLE_EQ(system.c[2], 0.5);
    EXPECT_DOUBLE_EQ(system.c[1], 0.5);
    EXPECT_DOUBLE_EQ(system.tlp(), 1.5);
}

TEST(Tlp, ThreadStillRunningAtWindowEnd)
{
    TraceBundle bundle = emptyBundle(2, 1000);
    bundle.cswitches.push_back(cs(250, 0, 0, 5));
    // No switch-out: busy [250, 1000).
    auto profile = Session(bundle).concurrency({5});
    EXPECT_DOUBLE_EQ(profile.c[1], 0.75);
    EXPECT_DOUBLE_EQ(profile.tlp(), 1.0);
}

TEST(Tlp, SubWindowAnalysis)
{
    // Busy [0, 600) on cpu0; analyze [400, 800): busy half of it.
    TraceBundle bundle = emptyBundle(2, 1000);
    bundle.cswitches.push_back(cs(0, 0, 0, 5));
    bundle.cswitches.push_back(cs(600, 0, 5, 0));
    auto profile = Session(bundle).concurrency({5}, 400, 800);
    EXPECT_DOUBLE_EQ(profile.c[1], 0.5);
    EXPECT_DOUBLE_EQ(profile.c[0], 0.5);
}

TEST(Tlp, RedundantSwitchesBetweenSameAppThreads)
{
    // cpu0: app thread A -> app thread B at t=500 (no busy gap).
    TraceBundle bundle = emptyBundle(2, 1000);
    bundle.cswitches.push_back(cs(0, 0, 0, 5));
    CSwitchEvent mid = cs(500, 0, 5, 5);
    mid.oldTid = 51;
    mid.newTid = 52;
    bundle.cswitches.push_back(mid);
    bundle.cswitches.push_back(cs(1000, 0, 5, 0));
    auto profile = Session(bundle).concurrency({5});
    EXPECT_DOUBLE_EQ(profile.c[1], 1.0);
    EXPECT_DOUBLE_EQ(profile.tlp(), 1.0);
}

TEST(Tlp, FractionsSumToOne)
{
    TraceBundle bundle = emptyBundle(4, 997);
    bundle.cswitches.push_back(cs(13, 0, 0, 5));
    bundle.cswitches.push_back(cs(200, 1, 0, 5));
    bundle.cswitches.push_back(cs(313, 2, 0, 5));
    bundle.cswitches.push_back(cs(500, 1, 5, 0));
    bundle.cswitches.push_back(cs(900, 0, 5, 0));
    auto profile = Session(bundle).concurrency({5});
    double sum = 0.0;
    for (double v : profile.c)
        sum += v;
    EXPECT_NEAR(sum, 1.0, 1e-12);
}

TEST(Tlp, BadWindowsFatal)
{
    TraceBundle bundle = emptyBundle(4, 1000);
    EXPECT_THROW(Session(bundle).concurrency({}, 10, 10),
                 deskpar::FatalError);
    TraceBundle noCpus = emptyBundle(0, 1000);
    EXPECT_THROW(Session(noCpus).concurrency({}),
                 deskpar::FatalError);
}

/**
 * Property sweep: for k threads running the whole window on k CPUs,
 * TLP == k and max concurrency == k.
 */
class TlpSaturation : public ::testing::TestWithParam<unsigned>
{};

TEST_P(TlpSaturation, KThreadsGiveTlpK)
{
    unsigned k = GetParam();
    TraceBundle bundle = emptyBundle(12, 1000);
    for (unsigned cpu = 0; cpu < k; ++cpu)
        bundle.cswitches.push_back(cs(0, cpu, 0, 5));
    auto profile = Session(bundle).concurrency({5});
    EXPECT_DOUBLE_EQ(profile.tlp(), static_cast<double>(k));
    EXPECT_EQ(profile.maxConcurrency(), k);
    EXPECT_DOUBLE_EQ(profile.c[k], 1.0);
}

INSTANTIATE_TEST_SUITE_P(Levels, TlpSaturation,
                         ::testing::Values(1u, 2u, 3u, 4u, 6u, 8u,
                                           12u));

} // namespace

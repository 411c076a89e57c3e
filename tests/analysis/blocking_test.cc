/**
 * @file
 * Tests for the wakeup-chain bottleneck analyzer: the production
 * flat pass (blocking::analyze over a Session/TraceIndex) must be
 * EXPECT_EQ-identical to the map-based reference
 * (blocking::legacy::analyze) — whole reports and rendered text and
 * JSON alike — on randomized bundles, on hostile shapes (CPU ids past
 * the header count, tids reused across pids, disordered timestamps,
 * switch-outs that disagree with the CPU's occupant, filters that
 * match nothing), and through Session::bottlenecks at any job count.
 * Hand-built bundles pin down the edge semantics: self-wakeups,
 * cross-CPU dispatch attribution, readyTime == timestamp zero waits,
 * and idle (pid 0) transitions. CriticalPath* covers the chain DP,
 * tie-breaking, and the 64-hop backwalk cap.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "analysis/blocking.hh"
#include "analysis/session.hh"
#include "obs/obs.hh"
#include "reference/analysis_legacy.hh"
#include "report/documents.hh"
#include "sim/types.hh"
#include "trace/diagnostic.hh"
#include "trace/merge.hh"

namespace {

using namespace deskpar;
using namespace deskpar::analysis;
using blocking::BlockingReport;
using blocking::CriticalPathHop;
using blocking::ThreadBlocking;
using blocking::WakeupEdge;
using trace::CSwitchEvent;
using trace::Pid;
using trace::Tid;
using trace::TraceBundle;

/** Deterministic LCG so failures reproduce across runs and machines. */
struct Rng
{
    std::uint64_t state;

    explicit Rng(std::uint64_t seed) : state(seed * 2654435761ull + 1) {}

    std::uint64_t
    next()
    {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        return state >> 33;
    }

    std::uint64_t below(std::uint64_t n) { return n ? next() % n : 0; }
};

/** The bottlenecks document `deskpar bottlenecks --json` prints. */
std::string
bottlenecksJson(const BlockingReport &blockingReport,
                std::size_t top = 10)
{
    ServiceBottlenecksResult result;
    result.report = blockingReport;
    result.top = top;
    std::ostringstream out;
    deskpar::report::writeBottlenecksDocument(out, result);
    return out.str();
}

constexpr sim::SimTime kTraceLen = 10'000'000; // 10 simulated ms

/**
 * A random but structurally plausible cswitch stream — the same
 * generator shape as the query differential tests, so both suites
 * face the same hostile inputs (idle pids, self switches, zero and
 * nonzero waits, repeated thread keys across CPUs).
 */
TraceBundle
randomBundle(std::uint64_t seed, std::size_t cswitches = 400)
{
    Rng rng(seed);
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = kTraceLen;
    bundle.numLogicalCpus = 8;
    bundle.processNames = {{5, "handbrake"},
                           {6, "handbrake_worker"},
                           {7, "chrome"},
                           {9, "system"}};
    static const Pid kPids[] = {0, 5, 5, 6, 7, 9};

    sim::SimTime t = 0;
    for (std::size_t i = 0; i < cswitches; ++i) {
        t += rng.below(2 * kTraceLen / cswitches);
        CSwitchEvent e;
        e.timestamp = t;
        e.cpu = static_cast<unsigned>(rng.below(8));
        e.oldPid = kPids[rng.below(6)];
        e.oldTid = e.oldPid * 10;
        e.newPid = kPids[rng.below(6)];
        e.newTid = e.newPid ? e.newPid * 10 + rng.below(3) : 0;
        e.readyTime = t > 1000 ? t - rng.below(1000) : t;
        bundle.cswitches.push_back(e);
    }
    return bundle;
}

/** Pid sets the randomized differentials draw filters from. */
const std::vector<trace::PidSet> &
pidSets()
{
    static const std::vector<trace::PidSet> kSets = {
        {}, {5}, {5, 6}, {7}, {42}};
    return kSets;
}

/** Append one context switch to @p bundle. */
void
sw(TraceBundle &bundle, sim::SimTime ts, unsigned cpu, Pid oldPid,
   Tid oldTid, Pid newPid, Tid newTid, sim::SimTime ready)
{
    CSwitchEvent e;
    e.timestamp = ts;
    e.cpu = cpu;
    e.oldPid = oldPid;
    e.oldTid = oldTid;
    e.newPid = newPid;
    e.newTid = newTid;
    e.readyTime = ready;
    bundle.cswitches.push_back(e);
}

/** A bundle shell with a [0, stop) window and @p cpus CPUs. */
TraceBundle
shell(sim::SimTime stop, unsigned cpus)
{
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = stop;
    bundle.numLogicalCpus = cpus;
    return bundle;
}

const ThreadBlocking *
findThread(const BlockingReport &report, Pid pid, Tid tid)
{
    for (const ThreadBlocking &t : report.threads) {
        if (t.pid == pid && t.tid == tid)
            return &t;
    }
    return nullptr;
}

const WakeupEdge *
findEdge(const BlockingReport &report, Pid fromPid, Tid fromTid,
         Pid toPid, Tid toTid)
{
    for (const WakeupEdge &e : report.edges) {
        if (e.fromPid == fromPid && e.fromTid == fromTid &&
            e.toPid == toPid && e.toTid == toTid)
            return &e;
    }
    return nullptr;
}

/**
 * The production pass over @p bundle must equal the reference for
 * @p pids: the report, its text render and its JSON document.
 */
void
expectMatchesReference(const TraceBundle &bundle,
                       const trace::PidSet &pids)
{
    Session session(bundle);
    BlockingReport reference = blocking::legacy::analyze(bundle, pids);
    BlockingReport report = blocking::analyze(session.index(), pids);
    EXPECT_EQ(report, reference);
    EXPECT_EQ(blocking::renderReport(report),
              blocking::renderReport(reference));
    EXPECT_EQ(bottlenecksJson(report), bottlenecksJson(reference));
}

TEST(BlockingDiff, RandomBundlesMatchReferenceAtEveryThreadCount)
{
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        TraceBundle bundle = randomBundle(seed);
        for (const trace::PidSet &pids : pidSets()) {
            SCOPED_TRACE("seed " + std::to_string(seed));
            expectMatchesReference(bundle, pids);
            // The front door takes a job count; no value may change
            // the report.
            BlockingReport reference =
                blocking::legacy::analyze(bundle, pids);
            for (unsigned threads : {1u, 2u, 7u})
                EXPECT_EQ(Session(bundle).bottlenecks(pids, threads),
                          reference);
        }
    }
}

/**
 * A random stream built to break assumptions a flat pass could make:
 * CPU ids past the header count up to UINT32_MAX, one tid under
 * several pids, timestamps that step backwards, inverted ready times,
 * and switch-outs naming a thread other than the CPU's occupant.
 */
TraceBundle
hostileBundle(std::uint64_t seed, std::size_t cswitches = 400)
{
    Rng rng(seed);
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = kTraceLen;
    bundle.numLogicalCpus = 4;
    bundle.processNames = {{5, "handbrake"}, {6, "chrome"}};
    constexpr trace::CpuId kMax =
        std::numeric_limits<trace::CpuId>::max();
    static const trace::CpuId kCpus[] = {0,    1,    3,        4,
                                         4095, 4096, kMax - 1, kMax};
    static const Pid kPids[] = {0, 5, 6, 7};

    sim::SimTime t = kTraceLen / 2;
    for (std::size_t i = 0; i < cswitches; ++i) {
        // Mostly forward, sometimes backward.
        sim::SimTime step = rng.below(2 * kTraceLen / cswitches);
        t = rng.below(5) == 0 && t > step ? t - step : t + step;
        CSwitchEvent e;
        e.timestamp = t;
        e.cpu = kCpus[rng.below(8)];
        e.oldPid = kPids[rng.below(4)];
        e.oldTid = e.oldPid ? 50 + rng.below(2) : 0;
        e.newPid = kPids[rng.below(4)];
        e.newTid = e.newPid ? 50 + rng.below(2) : 0;
        e.readyTime = t + 500 - rng.below(1000);
        bundle.cswitches.push_back(e);
    }
    return bundle;
}

TEST(BlockingDiff, HostileRandomBundlesMatchReference)
{
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        SCOPED_TRACE("seed " + std::to_string(seed));
        TraceBundle bundle = hostileBundle(seed);
        for (const trace::PidSet &pids : pidSets())
            expectMatchesReference(bundle, pids);
        // A zero header, which only a hand-built bundle keeps.
        bundle.stopTime = 0;
        bundle.numLogicalCpus = 0;
        expectMatchesReference(bundle, {});
    }
}

TEST(BlockingDiff, CpuIdsPastHeaderCountMatchReference)
{
    constexpr trace::CpuId kMax =
        std::numeric_limits<trace::CpuId>::max();
    for (unsigned cpus : {2u, 0u}) {
        SCOPED_TRACE("header cpus " + std::to_string(cpus));
        TraceBundle bundle = shell(cpus ? 1000 : 0, cpus);
        sw(bundle, 0, 1, 0, 0, 5, 50, 0);
        sw(bundle, 10, 2, 0, 0, 5, 51, 0);       // == header count
        sw(bundle, 20, 4096, 0, 0, 6, 60, 5);    // first sparse id
        sw(bundle, 30, kMax, 0, 0, 6, 61, 25);
        sw(bundle, 40, kMax - 1, 0, 0, 7, 70, 40);
        sw(bundle, 200, kMax, 6, 61, 5, 52, 100); // edge on kMax
        sw(bundle, 300, 2, 5, 51, 6, 61, 150);    // migrates back
        sw(bundle, 400, 4096, 6, 60, 0, 0, 0);
        // Headerless, settled as a decoder settles it: the CPU count
        // caps at kMaxLogicalCpus, and every id past it stays a CPU
        // the pass must survive.
        if (cpus == 0)
            trace::canonicalize(bundle);
        expectMatchesReference(bundle, {});
        expectMatchesReference(bundle, {6});
        Session session(bundle);
        BlockingReport report = blocking::analyze(session.index(), {});
        EXPECT_EQ(report.numCpus, cpus ? cpus : trace::kMaxLogicalCpus);
    }
}

TEST(BlockingDiff, TidReusedUnderTwoPidsMatchesReference)
{
    TraceBundle bundle = shell(500, 1);
    sw(bundle, 0, 0, 0, 0, 5, 50, 0);
    sw(bundle, 100, 0, 5, 50, 6, 50, 40); // same tid, other pid
    sw(bundle, 200, 0, 6, 50, 5, 50, 120);
    sw(bundle, 300, 0, 5, 50, 6, 50, 300);
    for (const trace::PidSet &pids :
         {trace::PidSet{}, trace::PidSet{5}, trace::PidSet{6}})
        expectMatchesReference(bundle, pids);

    Session session(bundle);
    BlockingReport report = blocking::analyze(session.index(), {});
    ASSERT_EQ(report.threads.size(), 2u);
    EXPECT_EQ(findThread(report, 5, 50)->runNs, 200u);
    EXPECT_EQ(findThread(report, 6, 50)->runNs, 300u);
    EXPECT_NE(findEdge(report, 5, 50, 6, 50), nullptr);
    EXPECT_NE(findEdge(report, 6, 50, 5, 50), nullptr);
}

TEST(BlockingDiff, DisorderedTimestampsMatchReference)
{
    TraceBundle bundle = shell(1000, 2);
    sw(bundle, 500, 0, 0, 0, 5, 50, 400);
    // Steps back on cpu 0: an inverted segment and ready time.
    sw(bundle, 300, 0, 5, 50, 6, 60, 350);
    sw(bundle, 700, 1, 0, 0, 7, 70, 100);
    // Behind cpu 1's last switch, then a zero-length segment.
    sw(bundle, 600, 0, 6, 60, 5, 50, 650);
    sw(bundle, 600, 0, 5, 50, 5, 50, 600);
    // Steps back on cpu 1 past every earlier switch.
    sw(bundle, 100, 1, 7, 70, 6, 60, 0);
    expectMatchesReference(bundle, {});
    expectMatchesReference(bundle, {5, 7});
    // A zero header, which only a hand-built bundle keeps.
    bundle.stopTime = 0;
    bundle.numLogicalCpus = 0;
    expectMatchesReference(bundle, {});
}

TEST(BlockingDiff, SwitchOutDisagreeingWithOccupantMatchesReference)
{
    TraceBundle bundle = shell(600, 2);
    sw(bundle, 0, 0, 0, 0, 5, 50, 0);
    // The stream says 6/60 left cpu 0, but 5/50 occupies it: the
    // edge comes from the event's old thread, a thread never seen.
    sw(bundle, 100, 0, 6, 60, 7, 70, 20);
    // Old thread on another CPU, then old == the occupant's tid under
    // another pid.
    sw(bundle, 150, 1, 0, 0, 6, 60, 150);
    sw(bundle, 200, 0, 6, 60, 5, 50, 90);
    sw(bundle, 300, 0, 7, 50, 7, 70, 250);
    // Old names a thread while the CPU is idle.
    sw(bundle, 400, 1, 6, 60, 0, 0, 0);
    sw(bundle, 500, 1, 5, 50, 6, 60, 410);
    // A zero-wait edge from a thread seen nowhere else: it still
    // gets a row, with nothing but that edge behind it.
    sw(bundle, 550, 0, 8, 80, 5, 50, 550);
    for (const trace::PidSet &pids :
         {trace::PidSet{}, trace::PidSet{5, 7}, trace::PidSet{6}})
        expectMatchesReference(bundle, pids);

    Session session(bundle);
    BlockingReport report = blocking::analyze(session.index(), {});
    const WakeupEdge *edge = findEdge(report, 6, 60, 7, 70);
    ASSERT_NE(edge, nullptr);
    EXPECT_EQ(edge->waitNs, 80u);
    EXPECT_EQ(findEdge(report, 5, 50, 7, 70), nullptr);
    const ThreadBlocking *silent = findThread(report, 8, 80);
    ASSERT_NE(silent, nullptr);
    EXPECT_EQ(silent->blockedNs, 0u);
    EXPECT_EQ(silent->dispatches, 0u);
}

TEST(BlockingDiff, PidFilterMatchingNothingMatchesReference)
{
    TraceBundle bundle = randomBundle(11);
    expectMatchesReference(bundle, {42});
    Session session(bundle);
    BlockingReport report = blocking::analyze(session.index(), {42});
    EXPECT_TRUE(report.threads.empty());
    EXPECT_TRUE(report.edges.empty());
    EXPECT_TRUE(report.criticalPath.empty());
    EXPECT_EQ(report.dispatches, 0u);
    EXPECT_EQ(report.totalRunNs, 0u);
    EXPECT_EQ(report.numCpus, 8u);
}

TEST(BlockingDiff, SessionEntryPointMatchesReference)
{
    TraceBundle bundle = randomBundle(42);
    Session session(bundle);
    EXPECT_EQ(session.bottlenecks({}, 3),
              blocking::legacy::analyze(bundle, {}));
    EXPECT_EQ(session.bottlenecks({5, 6}, 2),
              blocking::legacy::analyze(bundle, {5, 6}));
}

/**
 * Session::bottlenecks memoizes the report per pid set: asked again
 * (other thread counts, other `top` values at render time, the pid
 * set in another iteration order) it must still equal the reference
 * report and render identically.
 */
TEST(BlockingResident, MemoizedReportMatchesReferenceAtAnyTop)
{
    TraceBundle bundle = randomBundle(17);
    Session session(bundle);
    for (const trace::PidSet &pids : pidSets()) {
        BlockingReport reference =
            blocking::legacy::analyze(bundle, pids);
        trace::PidSet reordered;
        reordered.reserve(8);
        reordered.insert(pids.begin(), pids.end());
        for (unsigned threads : {1u, 2u, 7u}) {
            BlockingReport report =
                session.bottlenecks(threads == 2 ? reordered : pids,
                                    threads);
            EXPECT_EQ(report, reference);
            for (std::size_t top : {std::size_t{2}, std::size_t{10}}) {
                EXPECT_EQ(blocking::renderReport(report, top),
                          blocking::renderReport(reference, top));
                EXPECT_EQ(bottlenecksJson(report, top),
                          bottlenecksJson(reference, top));
            }
        }
    }
}

#if !defined(DESKPAR_OBS_DISABLED)

/** Spans named @p name in @p snapshot. */
std::size_t
spanCount(const deskpar::obs::Snapshot &snapshot, std::string_view name)
{
    return static_cast<std::size_t>(std::count_if(
        snapshot.spans.begin(), snapshot.spans.end(),
        [&](const deskpar::obs::SpanRecord &span) {
            return span.name != nullptr && name == span.name;
        }));
}

/** A repeated bottlenecks request on one Session runs no sweep. */
TEST(BlockingResident, SecondRequestRunsNoSweep)
{
    TraceBundle bundle = randomBundle(23);
    const bool wasEnabled = obs::enabled();
    obs::setEnabled(true);
    obs::reset();

    Session session(bundle);
    BlockingReport first = session.bottlenecks({5, 6}, 2);
    obs::Snapshot cold = obs::collect();
    BlockingReport second = session.bottlenecks({6, 5}, 3);
    obs::Snapshot warm = obs::collect();
    obs::setEnabled(wasEnabled);

    EXPECT_EQ(first, blocking::legacy::analyze(bundle, {5, 6}));
    EXPECT_EQ(second, first);
    EXPECT_EQ(spanCount(cold, "blocking.analyze"), 1u);
    EXPECT_EQ(spanCount(warm, "blocking.analyze"), 0u);
    EXPECT_EQ(spanCount(warm, "index.build.cswitch"), 0u);
}

#endif // !DESKPAR_OBS_DISABLED

TEST(BlockingDiff, HeaderlessBundlesMatchReference)
{
    // Bare CPU-Usage CSVs carry no header; the decoder settles the
    // window and CPU count from the stream, and both paths must take
    // the settled header identically.
    trace::CollectingDiagnosticSink sink;
    trace::ScopedDiagnosticSink scoped(sink);

    TraceBundle bundle = randomBundle(7);
    bundle.startTime = 0;
    bundle.stopTime = 0;
    bundle.numLogicalCpus = 0;
    trace::canonicalize(bundle);
    ASSERT_NE(bundle.numLogicalCpus, 0u);
    ASSERT_LT(bundle.startTime, bundle.stopTime);
    expectMatchesReference(bundle, {});
}

TEST(BlockingSemantics, ZeroWaitDispatchCountsButAddsNoWait)
{
    TraceBundle bundle = shell(300, 1);
    sw(bundle, 0, 0, 0, 0, 5, 50, 0);
    sw(bundle, 100, 0, 5, 50, 6, 60, 100); // readyTime == timestamp
    BlockingReport report = blocking::legacy::analyze(bundle, {});

    EXPECT_EQ(report.dispatches, 2u);
    EXPECT_EQ(report.totalWaitNs, 0u);
    const ThreadBlocking *worker = findThread(report, 6, 60);
    ASSERT_NE(worker, nullptr);
    EXPECT_EQ(worker->dispatches, 1u);
    EXPECT_EQ(worker->waitNs, 0u);
    EXPECT_EQ(worker->maxWaitNs, 0u);
    // The wakeup edge still exists — it just carried no wait.
    const WakeupEdge *edge = findEdge(report, 5, 50, 6, 60);
    ASSERT_NE(edge, nullptr);
    EXPECT_EQ(edge->count, 1u);
    EXPECT_EQ(edge->waitNs, 0u);
}

TEST(BlockingSemantics, IdleTransitionsCarryNoEdge)
{
    TraceBundle bundle = shell(400, 1);
    // Idle hands the CPU to thread A: a dispatch with a wait but no
    // culprit — the CPU was free, nothing on it serialized A.
    sw(bundle, 100, 0, 0, 0, 5, 50, 40);
    // A yields back to idle, then idle hands it to B.
    sw(bundle, 200, 0, 5, 50, 0, 0, 0);
    sw(bundle, 300, 0, 0, 0, 6, 60, 250);
    BlockingReport report = blocking::legacy::analyze(bundle, {});

    EXPECT_EQ(report.dispatches, 2u);
    EXPECT_EQ(report.totalWaitNs, 110u); // 60 + 50
    EXPECT_TRUE(report.edges.empty());
    // Idle itself never shows up as a thread.
    EXPECT_EQ(findThread(report, 0, 0), nullptr);
    // A ran exactly [100, 200); the idle gap [200, 300) counts for
    // nobody.
    const ThreadBlocking *a = findThread(report, 5, 50);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->runNs, 100u);
    EXPECT_EQ(report.totalRunNs, 200u); // A 100 + B [300, 400)
}

TEST(BlockingSemantics, SelfWakeupKeepsSelfEdge)
{
    TraceBundle bundle = shell(300, 1);
    sw(bundle, 0, 0, 0, 0, 5, 50, 0);
    // Quantum-limited: the thread switches out and right back in,
    // having waited 30 ns behind its own switch-out.
    sw(bundle, 100, 0, 5, 50, 5, 50, 70);
    BlockingReport report = blocking::legacy::analyze(bundle, {});

    const WakeupEdge *self = findEdge(report, 5, 50, 5, 50);
    ASSERT_NE(self, nullptr);
    EXPECT_EQ(self->count, 1u);
    EXPECT_EQ(self->waitNs, 30u);
    const ThreadBlocking *t = findThread(report, 5, 50);
    ASSERT_NE(t, nullptr);
    EXPECT_EQ(t->blockedNs, 30u); // blocked behind itself
    EXPECT_EQ(t->waitNs, 30u);
    EXPECT_NE(blocking::renderReport(report).find("(self)"),
              std::string::npos);
}

TEST(BlockingSemantics, CrossCpuDispatchesAttributeToCpuLocalPredecessor)
{
    TraceBundle bundle = shell(500, 2);
    // Thread A occupies cpu 0 the whole time; thread B occupies
    // cpu 1 until C displaces it there. C's wait is attributed to B
    // (the cpu-1 occupant), never to A.
    sw(bundle, 0, 0, 0, 0, 5, 50, 0);
    sw(bundle, 0, 1, 0, 0, 6, 60, 0);
    sw(bundle, 300, 1, 6, 60, 7, 70, 120);
    BlockingReport report = blocking::legacy::analyze(bundle, {});

    const WakeupEdge *edge = findEdge(report, 6, 60, 7, 70);
    ASSERT_NE(edge, nullptr);
    EXPECT_EQ(edge->waitNs, 180u);
    EXPECT_EQ(findEdge(report, 5, 50, 7, 70), nullptr);
    const ThreadBlocking *a = findThread(report, 5, 50);
    ASSERT_NE(a, nullptr);
    EXPECT_EQ(a->blockedNs, 0u);
    // Per-CPU segments close independently: A [0,500), B [0,300),
    // C [300,500).
    EXPECT_EQ(a->runNs, 500u);
    EXPECT_EQ(findThread(report, 6, 60)->runNs, 300u);
    EXPECT_EQ(findThread(report, 7, 70)->runNs, 200u);
}

TEST(BlockingSemantics, PidFilterExcludesForeignVictimsAndCulprits)
{
    TraceBundle bundle = shell(400, 1);
    sw(bundle, 0, 0, 0, 0, 7, 70, 0);    // foreign
    sw(bundle, 100, 0, 7, 70, 5, 50, 20); // foreign -> target
    sw(bundle, 300, 0, 5, 50, 7, 70, 150); // target -> foreign
    BlockingReport report = blocking::legacy::analyze(bundle, {5});

    // Only the target thread has a row; the foreign pid is neither a
    // victim nor a culprit, and no edge crosses the filter boundary.
    ASSERT_EQ(report.threads.size(), 1u);
    EXPECT_EQ(report.threads[0].pid, 5);
    EXPECT_EQ(report.threads[0].runNs, 200u); // [100, 300)
    EXPECT_EQ(report.threads[0].blockedNs, 0u);
    EXPECT_TRUE(report.edges.empty());
    EXPECT_EQ(report.dispatches, 1u);
    EXPECT_EQ(report.totalWaitNs, 80u);
}

TEST(BlockingSemantics, HeaderlessBundleDerivesWindowFromStream)
{
    trace::CollectingDiagnosticSink sink;
    trace::ScopedDiagnosticSink scoped(sink);

    TraceBundle bundle = shell(0, 0); // no header fields at all
    sw(bundle, 100, 0, 0, 0, 5, 50, 100);
    sw(bundle, 400, 1, 0, 0, 6, 60, 380);
    sw(bundle, 900, 0, 5, 50, 0, 0, 0);
    trace::canonicalize(bundle); // as the CSV decoder leaves it
    Session session(bundle);
    BlockingReport report = blocking::analyze(session.index(), {});
    EXPECT_EQ(report, blocking::legacy::analyze(bundle, {}));

    EXPECT_EQ(report.t0, 100u);
    EXPECT_EQ(report.t1, 900u);
    EXPECT_EQ(report.numCpus, 2u);
    // The cpu-1 occupant's final segment closes at the observed
    // stream end: [400, 900).
    EXPECT_EQ(findThread(report, 6, 60)->runNs, 500u);
}

TEST(BlockingReportTest, ClassificationFollowsWaitTlpThreshold)
{
    BlockingReport report;
    report.t0 = 0;
    report.t1 = 1'000'000'000; // 1 s
    report.totalWaitNs = 600'000'000;
    EXPECT_DOUBLE_EQ(report.waitTlp(), 0.6);
    EXPECT_TRUE(report.bottleneckLimited());
    EXPECT_STREQ(report.classification(), "bottleneck-limited");

    report.totalWaitNs = 400'000'000;
    EXPECT_FALSE(report.bottleneckLimited());
    EXPECT_STREQ(report.classification(), "structurally serial");

    report.criticalPathNs = 250'000'000;
    EXPECT_DOUBLE_EQ(report.serialFraction(), 0.25);
}

TEST(BlockingRender, JsonCarriesSummaryAndClassification)
{
    TraceBundle bundle = shell(300, 1);
    sw(bundle, 0, 0, 0, 0, 5, 50, 0);
    sw(bundle, 100, 0, 5, 50, 6, 60, 40);
    std::string json =
        bottlenecksJson(blocking::legacy::analyze(bundle, {}));

    for (const char *key :
         {"\"window_s\"", "\"wait_tlp\"", "\"classification\"",
          "\"serial_fraction\"", "\"threads\"", "\"edges\"",
          "\"critical_path\""})
        EXPECT_NE(json.find(key), std::string::npos) << key;
}

TEST(CriticalPath, ChainsRunSegmentsThroughWakeupEdges)
{
    TraceBundle bundle = shell(200, 1);
    sw(bundle, 0, 0, 0, 0, 5, 50, 0);
    sw(bundle, 100, 0, 5, 50, 6, 60, 50);
    BlockingReport report = blocking::legacy::analyze(bundle, {});

    // B adopts A's 100 ns chain at the wakeup, then runs 100 ns of
    // its own: one serialized 200 ns sequence spanning one wakeup.
    EXPECT_EQ(report.criticalPathNs, 200u);
    EXPECT_EQ(report.criticalPathSwitches, 1u);
    ASSERT_EQ(report.criticalPath.size(), 2u);
    EXPECT_EQ(report.criticalPath[0], (CriticalPathHop{5, 50}));
    EXPECT_EQ(report.criticalPath[1], (CriticalPathHop{6, 60}));
    EXPECT_DOUBLE_EQ(report.serialFraction(), 1.0);
}

TEST(CriticalPath, TiesResolveToLowestThreadKey)
{
    TraceBundle bundle = shell(100, 2);
    // Two independent 100 ns chains of equal length on separate CPUs.
    sw(bundle, 0, 0, 0, 0, 7, 70, 0);
    sw(bundle, 0, 1, 0, 0, 5, 50, 0);
    BlockingReport report = blocking::legacy::analyze(bundle, {});

    EXPECT_EQ(report.criticalPathNs, 100u);
    EXPECT_EQ(report.criticalPathSwitches, 0u);
    ASSERT_EQ(report.criticalPath.size(), 1u);
    EXPECT_EQ(report.criticalPath[0], (CriticalPathHop{5, 50}));
}

TEST(CriticalPath, BackwalkIsCappedOnWakeupCycles)
{
    // A tight ping-pong: two threads alternately displace each other
    // on one CPU. The chain DP's predecessor pointers end up mutually
    // recursive (A <- B <- A ...), so the backwalk must stop at its
    // 64-hop cap instead of looping forever, and the text report
    // elides the middle of the loop.
    TraceBundle bundle = shell(2010, 1);
    sw(bundle, 0, 0, 0, 0, 5, 50, 0);
    for (sim::SimTime t = 10; t <= 2000; t += 10) {
        bool even = (t / 10) % 2 == 0;
        Pid from = even ? 5 : 6;
        Pid to = even ? 6 : 5;
        sw(bundle, t, 0, from, from * 10, to, to * 10, t - 5);
    }
    BlockingReport report = blocking::legacy::analyze(bundle, {});

    EXPECT_EQ(report.criticalPath.size(), 64u);
    EXPECT_GT(report.criticalPathSwitches, 64u);
    std::string text = blocking::renderReport(report);
    EXPECT_NE(text.find("more hops)"), std::string::npos);

    // The capped summary must still be deterministic across paths.
    expectMatchesReference(bundle, {});
}

} // namespace

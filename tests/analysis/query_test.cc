/**
 * @file
 * Differential tests for the query layer: every fused batch
 * (Session::query / QueryPlan) must be bit-identical to the
 * straight-line reference (legacy::runQueries) — on randomized
 * bundles, canonicalized disordered streams, out-of-range-cpu
 * bundles and fault-corpus survivors, at 1, 2 and 7 worker
 * threads. Double comparisons deliberately use EXPECT_EQ: "close" is
 * not the contract, equality is. Also covers the fusion counts the planner
 * reports, the once-per-trace out-of-range warning, the spec syntax
 * round-trip, and the canned queries' equivalence to the existing
 * Session entry points.
 */

#include <gtest/gtest.h>

#include <unistd.h>

#include <algorithm>
#include <cstdint>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <utility>
#include <vector>

#include "analysis/index_cache.hh"
#include "analysis/query.hh"
#include "analysis/query_plan.hh"
#include "analysis/session.hh"
#include "analysis/timeseries.hh"
#include "analysis/tlp.hh"
#include "analysis/trace_index.hh"
#include "obs/obs.hh"
#include "reference/analysis_legacy.hh"
#include "sim/logging.hh"
#include "sim/types.hh"
#include "support/corrupt.hh"
#include "trace/diagnostic.hh"
#include "trace/etl.hh"
#include "trace/merge.hh"

namespace {

using namespace deskpar;
using namespace deskpar::analysis;
using trace::CSwitchEvent;
using trace::FrameEvent;
using trace::GpuPacketEvent;
using trace::MarkerEvent;
using trace::Pid;
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

constexpr sim::SimTime kTraceLen = 10'000'000; // 10 simulated ms

struct BundleSpec
{
    unsigned cpus = 8;
    std::size_t cswitches = 300;
    std::size_t gpuPackets = 60;
    std::size_t frames = 40;
    std::size_t markers = 16;
    bool shuffleCswitches = false;
    bool outOfRangeCpus = false;
};

template <typename Event>
void
shuffleEvents(std::vector<Event> &events, Rng &rng)
{
    for (std::size_t i = events.size(); i > 1; --i)
        std::swap(events[i - 1], events[rng.below(i)]);
}

/**
 * A random but structurally plausible bundle: the same generator
 * shape as the trace-index differential tests, so the two suites
 * exercise the same hostile inputs.
 */
TraceBundle
randomBundle(std::uint64_t seed, const BundleSpec &spec = {})
{
    Rng rng(seed);
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = kTraceLen;
    bundle.numLogicalCpus = spec.cpus;
    bundle.processNames = {{5, "handbrake"},
                           {6, "handbrake_worker"},
                           {7, "chrome"},
                           {9, "system"}};
    static const Pid kPids[] = {0, 5, 5, 6, 7, 9};

    sim::SimTime t = 0;
    for (std::size_t i = 0; i < spec.cswitches; ++i) {
        t += rng.below(2 * kTraceLen / spec.cswitches);
        CSwitchEvent e;
        e.timestamp = t;
        e.cpu = spec.outOfRangeCpus && rng.below(8) == 0
                    ? spec.cpus + static_cast<unsigned>(rng.below(3))
                    : static_cast<unsigned>(rng.below(spec.cpus));
        e.oldPid = kPids[rng.below(6)];
        e.oldTid = e.oldPid * 10;
        e.newPid = kPids[rng.below(6)];
        e.newTid = e.newPid ? e.newPid * 10 + rng.below(3) : 0;
        e.readyTime = t > 1000 ? t - rng.below(1000) : t;
        bundle.cswitches.push_back(e);
    }
    if (spec.shuffleCswitches)
        shuffleEvents(bundle.cswitches, rng);

    sim::SimTime g = 0;
    for (std::size_t i = 0; i < spec.gpuPackets; ++i) {
        g += rng.below(2 * kTraceLen / spec.gpuPackets);
        GpuPacketEvent p;
        p.queued = g;
        p.start = g;
        p.finish = g + 1 + rng.below(300'000);
        p.pid = kPids[rng.below(6)];
        p.engine = static_cast<trace::GpuEngineId>(rng.below(5));
        p.packetId = static_cast<std::uint32_t>(i);
        p.queueSlot = static_cast<std::uint8_t>(rng.below(2));
        bundle.gpuPackets.push_back(p);
    }

    sim::SimTime f = 0;
    for (std::size_t i = 0; i < spec.frames; ++i) {
        f += rng.below(2 * kTraceLen / spec.frames);
        FrameEvent fe;
        fe.timestamp = f;
        fe.pid = rng.below(2) ? 5 : 7;
        fe.frameId = static_cast<std::uint32_t>(i);
        fe.synthesized = rng.below(5) == 0;
        bundle.frames.push_back(fe);
    }

    sim::SimTime m = 0;
    for (std::size_t i = 0; i < spec.markers; ++i) {
        m += rng.below(kTraceLen / spec.markers);
        MarkerEvent me;
        me.timestamp = m;
        me.label = rng.below(3) == 0 ? "phase:steady" : "input:mouse";
        bundle.markers.push_back(me);
    }
    return bundle;
}

/** Pid sets the randomized batches draw filters from. */
const std::vector<trace::PidSet> &
pidSets()
{
    static const std::vector<trace::PidSet> kSets = {
        {}, {5}, {5, 6}, {7}, {42}};
    return kSets;
}

std::pair<sim::SimTime, sim::SimTime>
randomWindow(Rng &rng, const TraceBundle &bundle)
{
    sim::SimTime span = bundle.stopTime + kTraceLen / 4;
    sim::SimTime a = rng.below(span);
    sim::SimTime b = rng.below(span);
    if (a == b)
        ++b;
    return {std::min(a, b), std::max(a, b)};
}

/** A random valid query (no fatal metric/group combinations). */
Query
randomQuery(Rng &rng, const TraceBundle &bundle)
{
    Query q;
    q.metric = static_cast<QueryMetric>(rng.below(8));
    q.filter.pids = pidSets()[rng.below(pidSets().size())];
    if (rng.below(2)) {
        auto [a, b] = randomWindow(rng, bundle);
        q.filter.t0 = a;
        q.filter.t1 = b;
    }
    if (rng.below(4) == 0)
        q.filter.cpuMask = rng.below(255) + 1;
    switch (rng.below(6)) {
      case 1:
        q.groupBy = QueryGroupBy::Process;
        break;
      case 2:
        q.groupBy = q.metric == QueryMetric::GpuOccupancy
                        ? QueryGroupBy::GpuEngine
                        : QueryGroupBy::Thread;
        break;
      case 3:
        q.groupBy = QueryGroupBy::Phase;
        break;
      case 4:
        q.groupBy = QueryGroupBy::TimeBucket;
        q.bucket = kTraceLen / (1 + rng.below(24));
        break;
      default:
        q.groupBy = QueryGroupBy::None;
        break;
    }
    return q;
}

void
expectResultsEqual(const std::vector<QueryResult> &got,
                   const std::vector<QueryResult> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t q = 0; q < got.size(); ++q) {
        EXPECT_EQ(got[q].query.label, want[q].query.label);
        ASSERT_EQ(got[q].rows.size(), want[q].rows.size())
            << "query " << q << " (" << want[q].query.label << ")";
        for (std::size_t r = 0; r < got[q].rows.size(); ++r) {
            const QueryRow &a = got[q].rows[r];
            const QueryRow &b = want[q].rows[r];
            SCOPED_TRACE("query " + want[q].query.label + " row " +
                         std::to_string(r));
            EXPECT_EQ(a.key, b.key);
            EXPECT_EQ(a.t0, b.t0);
            EXPECT_EQ(a.t1, b.t1);
            EXPECT_EQ(a.pid, b.pid);
            EXPECT_EQ(a.tid, b.tid);
            EXPECT_EQ(a.value, b.value);
            EXPECT_EQ(a.histogram, b.histogram);
        }
    }
}

/** Exact hexfloat dump, so "same value or same failure" is a string. */
std::string
fingerprintResults(const std::vector<QueryResult> &results)
{
    std::ostringstream os;
    os << std::hexfloat;
    for (const QueryResult &result : results) {
        os << result.query.label << '\n';
        for (const QueryRow &row : result.rows) {
            os << row.key << ',' << row.t0 << ',' << row.t1 << ','
               << row.pid << ',' << row.tid << ',' << row.value;
            for (std::uint64_t h : row.histogram)
                os << ',' << h;
            os << '\n';
        }
    }
    return os.str();
}

std::vector<Query> residentBatch();

template <typename Fn>
std::string
outcome(Fn &&fn)
{
    try {
        return fn();
    } catch (const PanicError &e) {
        return std::string("panic: ") + e.what();
    } catch (const FatalError &e) {
        return std::string("fatal: ") + e.what();
    }
}

TEST(QueryDiff, RandomBatchesMatchReferenceAtEveryThreadCount)
{
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        TraceBundle bundle = randomBundle(seed);
        Rng rng(seed ^ 0x5EED);
        std::vector<Query> batch;
        for (int i = 0; i < 12; ++i)
            batch.push_back(randomQuery(rng, bundle));

        std::vector<QueryResult> reference =
            legacy::runQueries(bundle, batch);
        Session session(bundle);
        for (unsigned threads : {1u, 2u, 7u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                         std::to_string(threads));
            expectResultsEqual(session.query(batch, threads),
                               reference);
        }
    }
}

/**
 * Bucket queries long enough that their rows span several planner
 * chunks (64 tasks), with short last buckets, consecutive queries on
 * one filter (the next query's first row walks back to the start),
 * other filters in between, and windows that open before the first
 * switch or close after the last: every row bit-identical to the
 * reference at 1, 2 and 7 threads.
 */
TEST(QueryDiff, LongBucketRunsMatchReferenceAcrossChunks)
{
    BundleSpec spec;
    spec.cswitches = 6000;
    spec.outOfRangeCpus = true;
    for (std::uint64_t seed = 0; seed < 3; ++seed) {
        TraceBundle bundle = randomBundle(seed, spec);
        auto bucketQuery = [](QueryMetric metric, sim::SimDuration width,
                              trace::PidSet pids = {}) {
            Query q;
            q.metric = metric;
            q.filter.pids = std::move(pids);
            q.groupBy = QueryGroupBy::TimeBucket;
            q.bucket = width;
            return q;
        };
        std::vector<Query> batch = {
            bucketQuery(QueryMetric::Tlp, kTraceLen / 150),
            bucketQuery(QueryMetric::Tlp, kTraceLen / 97),
            bucketQuery(QueryMetric::BusyFraction, 61'003, {5}),
            bucketQuery(QueryMetric::ContextSwitchRate, 47'001),
            bucketQuery(QueryMetric::ContextSwitchRate, 130'007, {5, 6}),
            bucketQuery(QueryMetric::Tlp, 7'001, {7}),
        };
        Query masked = bucketQuery(QueryMetric::BusyFraction, 99'991);
        masked.filter.cpuMask = 0b10110110;
        batch.push_back(masked);
        Query shifted = bucketQuery(QueryMetric::Tlp, 33'331, {5});
        shifted.filter.t0 = 1;
        shifted.filter.t1 = kTraceLen + kTraceLen / 3;
        batch.push_back(shifted);
        batch.push_back(
            bucketQuery(QueryMetric::ContextSwitchRate, 7'001, {7}));

        std::vector<QueryResult> reference =
            legacy::runQueries(bundle, batch);
        std::size_t rows = 0;
        for (const QueryResult &r : reference)
            rows += r.rows.size();
        ASSERT_GT(rows, 10 * 64u);
        for (unsigned threads : {1u, 2u, 7u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                         std::to_string(threads));
            Session session(bundle);
            expectResultsEqual(session.query(batch, threads),
                               reference);
        }
    }
}

/**
 * A disordered stream reaches the planner only canonicalized, as
 * every decoder leaves it: the fused plan must then produce the same
 * value — or the same first failure — as the serial reference on the
 * sorted stream, at any thread count. A hand-built disordered bundle
 * is refused with the timeline builder's panic.
 */
TEST(QueryDiff, DisorderedStreamsAnswerAsSorted)
{
    BundleSpec spec;
    spec.shuffleCswitches = true;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        TraceBundle disordered = randomBundle(seed, spec);
        EXPECT_EQ(outcome([&] {
                      return fingerprintResults(Session(disordered).query(
                          {parseQuerySpec("tlp")}, 1));
                  }),
                  "panic: panic: buildConcurrencyTimeline: cswitch "
                  "stream out of timestamp order");

        TraceBundle sorted = disordered;
        trace::sortBundle(sorted);
        TraceBundle bundle = disordered;
        trace::canonicalize(bundle);
        Rng rng(seed + 23);
        std::vector<Query> batch;
        for (int i = 0; i < 10; ++i)
            batch.push_back(randomQuery(rng, bundle));

        std::string want = outcome([&] {
            return fingerprintResults(
                legacy::runQueries(sorted, batch));
        });
        Session session(bundle);
        for (unsigned threads : {1u, 2u, 7u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                         std::to_string(threads));
            EXPECT_EQ(outcome([&] {
                          return fingerprintResults(
                              session.query(batch, threads));
                      }),
                      want);
        }
    }
}

TEST(QueryDiff, OutOfRangeCpuBundlesMatchReference)
{
    // Swallow the expected warnings so ctest output stays clean.
    trace::CollectingDiagnosticSink sink;
    trace::ScopedDiagnosticSink scoped(sink);

    BundleSpec spec;
    spec.outOfRangeCpus = true;
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        TraceBundle bundle = randomBundle(seed, spec);
        Rng rng(seed + 41);
        std::vector<Query> batch;
        for (int i = 0; i < 10; ++i)
            batch.push_back(randomQuery(rng, bundle));

        std::vector<QueryResult> reference =
            legacy::runQueries(bundle, batch);
        Session session(bundle);
        for (unsigned threads : {1u, 2u, 7u})
            expectResultsEqual(session.query(batch, threads),
                               reference);
    }
}

/**
 * The out-of-range-cpu warning is per *trace*, not per query: a whole
 * fused batch emits exactly one, re-running the batch on the same
 * Session emits none, a fresh Session (fresh TraceIndex) emits one
 * more — while the pre-fusion reference still spams one per sweep.
 */
TEST(QueryWarn, OutOfRangeCpuWarnedOncePerTrace)
{
    BundleSpec spec;
    spec.outOfRangeCpus = true;
    TraceBundle bundle = randomBundle(11, spec);

    std::vector<Query> batch;
    for (const auto &pids :
         {trace::PidSet{}, trace::PidSet{5}, trace::PidSet{5, 6}}) {
        batch.push_back(tlpQuery(pids));
        Query busy;
        busy.metric = QueryMetric::BusyFraction;
        busy.filter.pids = pids;
        batch.push_back(busy);
    }

    trace::CollectingDiagnosticSink sink;
    trace::ScopedDiagnosticSink scoped(sink);

    Session session(bundle);
    session.query(batch, 2);
    EXPECT_EQ(sink.count(trace::Severity::Warning), 1u);
    session.query(batch, 2); // same trace: already warned
    EXPECT_EQ(sink.count(trace::Severity::Warning), 1u);

    Session fresh(bundle);
    fresh.query(batch, 2);
    EXPECT_EQ(sink.count(trace::Severity::Warning), 2u);

    std::size_t before = sink.count(trace::Severity::Warning);
    legacy::runQueries(bundle, batch);
    EXPECT_GT(sink.count(trace::Severity::Warning), before + 1);
}

/**
 * The dedup flag behind emitDiagnosticOnce lives in the TraceIndex,
 * not in process-global state: a second trace analyzed in the same
 * process must warn again, and neither trace's re-queries may.
 */
TEST(QueryWarn, DedupStateDoesNotLeakAcrossTracesInOneProcess)
{
    BundleSpec spec;
    spec.outOfRangeCpus = true;
    TraceBundle first = randomBundle(13, spec);
    TraceBundle second = randomBundle(17, spec);

    trace::CollectingDiagnosticSink sink;
    trace::ScopedDiagnosticSink scoped(sink);

    Session a(first);
    a.query({tlpQuery({})}, 2);
    EXPECT_EQ(sink.count(trace::Severity::Warning), 1u);
    Session b(second);
    b.query({tlpQuery({})}, 2);
    EXPECT_EQ(sink.count(trace::Severity::Warning), 2u);
    a.query({tlpQuery({})}, 2);
    b.query({tlpQuery({})}, 2);
    EXPECT_EQ(sink.count(trace::Severity::Warning), 2u);
}

TEST(QueryPlanTest, FusesSharedFiltersIntoOnePass)
{
    TraceBundle bundle = randomBundle(2);
    Session session(bundle);

    std::vector<Query> batch;
    batch.push_back(tlpQuery({5}));
    Query busy;
    busy.metric = QueryMetric::BusyFraction;
    busy.filter.pids = {5};
    batch.push_back(busy);
    Query csrate;
    csrate.metric = QueryMetric::ContextSwitchRate;
    csrate.filter.pids = {5};
    batch.push_back(csrate);
    Query dhist;
    dhist.metric = QueryMetric::DurationHistogram;
    dhist.filter.pids = {5};
    batch.push_back(dhist);
    batch.push_back(tlpSeriesQuery({5}, sim::msec(1.0)));
    batch.push_back(tlpQuery({}));
    Query gpu;
    gpu.metric = QueryMetric::GpuOccupancy;
    gpu.filter.pids = {5};
    batch.push_back(gpu);
    gpu.groupBy = QueryGroupBy::GpuEngine;
    batch.push_back(gpu);

    QueryPlan plan = session.plan(batch);
    const QueryPlanExplain &explain = plan.explain();
    EXPECT_EQ(explain.queries, batch.size());
    // Eight queries collapse onto two distinct filters ({5} and
    // system-wide); the GPU queries ride the shared packet columns.
    EXPECT_EQ(explain.distinctFilters, 2u);
    EXPECT_EQ(explain.columnPasses, 2u);
    ASSERT_EQ(explain.passes.size(), 2u);
    EXPECT_TRUE(explain.passes[0].buildsTimeline);
    EXPECT_TRUE(explain.passes[0].buildsDispatches);
    EXPECT_TRUE(explain.passes[0].buildsBursts);
    EXPECT_FALSE(explain.str().empty());

    std::vector<QueryResult> first = plan.run(2);
    std::size_t rows = 0;
    for (const QueryResult &result : first)
        rows += result.rows.size();
    EXPECT_EQ(explain.rows, rows);
    std::size_t passRows = 0;
    for (const QueryPlanPass &pass : explain.passes)
        passRows += pass.rows;
    EXPECT_EQ(passRows, rows);

    // A compiled plan is reusable and deterministic run over run.
    expectResultsEqual(plan.run(2), first);
    expectResultsEqual(session.query(batch, 2), first);

    EXPECT_TRUE(session.query({}).empty());
}

/**
 * A plan run as an rvalue hands its pre-shaped rows over: the rows
 * equal a copying run's, the explain text survives, and a second
 * run panics instead of reading rows that are gone.
 */
TEST(QueryPlanTest, RvalueRunHandsOverItsRows)
{
    TraceBundle bundle = randomBundle(3);
    Session session(bundle);
    std::vector<Query> batch = residentBatch();
    const QueryPlan reused = session.plan(batch);
    std::vector<QueryResult> copied = reused.run(2);
    expectResultsEqual(copied, legacy::runQueries(bundle, batch));

    QueryPlan plan = session.plan(batch);
    const std::string explain = plan.explain().str();
    expectResultsEqual(std::move(plan).run(2), copied);
    EXPECT_EQ(plan.explain().str(), explain);
    EXPECT_THROW(plan.run(2), PanicError);
}

TEST(QuerySpec, RoundTripsCanonically)
{
    // Already-canonical specs survive a parse -> print round trip
    // verbatim.
    for (const char *spec :
         {"tlp", "busy/pids=5,6", "gpu/app=chrome/by=engine",
          "tlp/t0=0.001/t1=0.009", "csrate/cpus=0,2,3,4,5",
          "dhist/pids=5/by=process", "tlp/app=handbrake/by=phase",
          "waitfrac", "readylat/pids=5/by=thread",
          "topblocked/app=chrome"}) {
        EXPECT_EQ(querySpecString(parseQuerySpec(spec)), spec);
    }

    // Non-canonical inputs normalize (ranges expand, durations print
    // in seconds) and are then stable.
    EXPECT_EQ(querySpecString(parseQuerySpec("csrate/cpus=0,2-5")),
              "csrate/cpus=0,2,3,4,5");
    std::string bucket =
        querySpecString(parseQuerySpec("tlp/by=bucket:250ms"));
    EXPECT_EQ(bucket, "tlp/by=bucket:0.25s");
    EXPECT_EQ(querySpecString(parseQuerySpec(bucket)), bucket);

    for (const char *bad :
         {"", "bogus", "tlp/by=bucket", "tlp/cpus=64", "tlp/pids=",
          "tlp/t0=oops", "tlp/nope=1", "tlp/by=weird"}) {
        EXPECT_THROW(parseQuerySpec(bad), FatalError) << bad;
    }
}

/**
 * Sub-millisecond (and arbitrary) bucket widths and window bounds
 * survive a print -> parse round trip exactly. This is the %g
 * precision-loss regression: "tlp/by=bucket:0.000097s" used to come
 * back as 96999 ns.
 */
TEST(QuerySpec, RandomizedDurationsRoundTripExactly)
{
    Rng rng(0xB0C4E7);
    for (int i = 0; i < 500; ++i) {
        Query q = tlpQuery({});
        q.groupBy = QueryGroupBy::TimeBucket;
        switch (rng.below(4)) {
          case 0: // sub-millisecond, the regression range
            q.bucket = 1 + rng.below(1'000'000);
            break;
          case 1: // sub-second
            q.bucket = 1 + rng.below(1'000'000'000);
            break;
          case 2: // up to an hour
            q.bucket = 1 + rng.below(3'600'000'000'000ull);
            break;
          default: // anything representable
            q.bucket = 1 + rng.below(~0ull / 2);
            break;
        }
        std::string spec = querySpecString(q);
        Query parsed = parseQuerySpec(spec);
        EXPECT_EQ(parsed.bucket, q.bucket) << spec;
        EXPECT_EQ(querySpecString(parsed), spec) << spec;
    }

    // t0/t1 ride the same decimal-seconds printer and parser.
    for (int i = 0; i < 200; ++i) {
        Query q = tlpQuery({});
        q.filter.t0 = 1 + rng.below(10'000'000'000ull);
        q.filter.t1 =
            q.filter.t0 + 1 + rng.below(10'000'000'000ull);
        std::string spec = querySpecString(q);
        Query parsed = parseQuerySpec(spec);
        EXPECT_EQ(parsed.filter.t0, q.filter.t0) << spec;
        EXPECT_EQ(parsed.filter.t1, q.filter.t1) << spec;
    }
}

TEST(QuerySpec, InvalidQueriesFailIdenticallyOnBothPaths)
{
    TraceBundle bundle = randomBundle(3);
    Session session(bundle);
    for (const char *spec :
         {"gpu/by=thread", "busy/by=engine", "tlp/app=notepad",
          "tlp/t0=0.005/t1=0.001"}) {
        std::vector<Query> batch = {parseQuerySpec(spec)};
        EXPECT_EQ(outcome([&] {
                      return fingerprintResults(
                          legacy::runQueries(bundle, batch));
                  }),
                  outcome([&] {
                      return fingerprintResults(
                          session.query(batch, 2));
                  }))
            << spec;
    }
}

/**
 * The canned queries are exact re-expressions of the existing entry
 * points: same windows, same values, bit for bit.
 */
TEST(QueryCanned, MatchSessionEntryPoints)
{
    TraceBundle bundle = randomBundle(7);
    Session session(bundle);
    const sim::SimDuration window = sim::msec(1.0);
    for (const auto &pids : {trace::PidSet{}, trace::PidSet{5}}) {
        std::vector<QueryResult> results = session.query(
            {tlpQuery(pids), tlpSeriesQuery(pids, window),
             gpuUtilSeriesQuery(pids, window)},
            2);

        ASSERT_EQ(results[0].rows.size(), 1u);
        EXPECT_EQ(results[0].rows[0].value,
                  session.concurrency(pids).tlp());

        TimeSeries tlp = session.tlpSeries(pids, window);
        ASSERT_EQ(results[1].rows.size(), tlp.points.size());
        for (std::size_t i = 0; i < tlp.points.size(); ++i) {
            EXPECT_EQ(results[1].rows[i].t0, tlp.points[i].t);
            EXPECT_EQ(results[1].rows[i].value, tlp.points[i].value)
                << "window " << i;
        }

        TimeSeries gpu = session.gpuUtilSeries(pids, window);
        ASSERT_EQ(results[2].rows.size(), gpu.points.size());
        for (std::size_t i = 0; i < gpu.points.size(); ++i) {
            EXPECT_EQ(results[2].rows[i].value, gpu.points[i].value)
                << "window " << i;
        }
    }
}

/**
 * Lenient-mode survivors of the fault-injection corpus: for every
 * survivor the fused batch and the reference must produce the same
 * rows — or fail the same way — at 1 and 7 threads.
 */
TEST(QueryCorpus, SurvivorsMatchReference)
{
    TraceBundle original = randomBundle(99);
    std::ostringstream serialized;
    trace::writeEtl(original, serialized);
    trace::FaultInjector injector(serialized.str(), 0xfeedf00dull);

    trace::ParseOptions options;
    options.mode = trace::ParseMode::Lenient;
    options.source = "corpus";

    // Swallow the mutants' expected warnings.
    trace::CollectingDiagnosticSink sink;
    trace::ScopedDiagnosticSink scoped(sink);

    // No TimeBucket queries here: a mutated stopTime could tile an
    // absurd number of rows. The bounded group-bys stay.
    std::vector<Query> batch;
    batch.push_back(tlpQuery({}));
    Query busy;
    busy.metric = QueryMetric::BusyFraction;
    batch.push_back(busy);
    Query csrate;
    csrate.metric = QueryMetric::ContextSwitchRate;
    batch.push_back(csrate);
    Query dhist;
    dhist.metric = QueryMetric::DurationHistogram;
    batch.push_back(dhist);
    Query gpu;
    gpu.metric = QueryMetric::GpuOccupancy;
    gpu.groupBy = QueryGroupBy::GpuEngine;
    batch.push_back(gpu);
    Query byProcess = tlpQuery({});
    byProcess.groupBy = QueryGroupBy::Process;
    batch.push_back(byProcess);
    Query byPhase = tlpQuery({});
    byPhase.groupBy = QueryGroupBy::Phase;
    batch.push_back(byPhase);
    Query waitfrac;
    waitfrac.metric = QueryMetric::WaitFraction;
    batch.push_back(waitfrac);
    Query topblocked;
    topblocked.metric = QueryMetric::TopBlocked;
    topblocked.groupBy = QueryGroupBy::Process;
    batch.push_back(topblocked);

    std::size_t compared = 0;
    for (std::size_t i = 0; i < 96; ++i) {
        std::string bytes = injector.mutant(i);
        trace::IngestReport report;
        TraceBundle mutant =
            trace::decodeEtl(trace::io::ByteSpan(bytes), options, report);
        if (mutant.numLogicalCpus == 0 ||
            mutant.numLogicalCpus > 1024) {
            continue;
        }
        ++compared;
        SCOPED_TRACE("mutant " + std::to_string(i) + ": " +
                     injector.mutationFor(i).describe());

        std::string want = outcome([&] {
            return fingerprintResults(
                legacy::runQueries(mutant, batch));
        });
        Session session(mutant);
        for (unsigned threads : {1u, 7u}) {
            EXPECT_EQ(outcome([&] {
                          return fingerprintResults(
                              session.query(batch, threads));
                      }),
                      want)
                << "threads " << threads;
        }
    }
    EXPECT_GT(compared, 10u);
}

// ---- resident Sessions: the index keeps every filter's columns ----

/**
 * A fixed batch over several filters and every column family: the
 * default filter of three pid sets, per-thread (tid) filters, and
 * two cpu masks, with timeline, dispatch, burst and wait metrics.
 */
std::vector<Query>
residentBatch()
{
    auto make = [](QueryMetric metric, trace::PidSet pids,
                   QueryGroupBy groupBy = QueryGroupBy::None) {
        Query q;
        q.metric = metric;
        q.filter.pids = std::move(pids);
        q.groupBy = groupBy;
        return q;
    };
    std::vector<Query> batch;
    batch.push_back(make(QueryMetric::Tlp, {5, 6}));
    batch.push_back(make(QueryMetric::BusyFraction, {5, 6}));
    batch.push_back(tlpSeriesQuery({5, 6}, sim::msec(1.0)));
    batch.push_back(make(QueryMetric::ContextSwitchRate, {}));
    batch.push_back(make(QueryMetric::DurationHistogram, {}));
    batch.push_back(make(QueryMetric::WaitFraction, {7}));
    batch.push_back(make(QueryMetric::ReadyLatency, {7}));
    batch.push_back(
        make(QueryMetric::Tlp, {5, 6}, QueryGroupBy::Thread));
    batch.push_back(make(QueryMetric::TopBlocked, {},
                         QueryGroupBy::Process));
    Query masked = make(QueryMetric::Tlp, {5});
    masked.filter.cpuMask = 0x0F;
    batch.push_back(masked);
    masked.metric = QueryMetric::DurationHistogram;
    masked.filter.cpuMask = 0xF0;
    batch.push_back(masked);
    batch.push_back(make(QueryMetric::GpuOccupancy, {5},
                         QueryGroupBy::GpuEngine));
    return batch;
}

/**
 * A second batch on one Session reads the columns the first one
 * built; its rows must still be bit-identical to a fresh Session and
 * to the reference, whichever thread count built or reads them.
 */
TEST(QueryResident, RepeatedBatchMatchesFreshSessionAndReference)
{
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        TraceBundle bundle = randomBundle(seed);
        Rng rng(seed ^ 0xCAFE);
        std::vector<Query> batch = residentBatch();
        for (int i = 0; i < 8; ++i)
            batch.push_back(randomQuery(rng, bundle));

        std::vector<QueryResult> reference =
            legacy::runQueries(bundle, batch);
        Session resident(bundle);
        for (unsigned threads : {1u, 2u, 7u}) {
            SCOPED_TRACE("seed " + std::to_string(seed) + " threads " +
                         std::to_string(threads));
            Session fresh(bundle);
            expectResultsEqual(fresh.query(batch, threads), reference);
            expectResultsEqual(resident.query(batch, threads),
                               reference);
            expectResultsEqual(resident.query(batch, threads),
                               reference);
        }
    }
}

/**
 * A dhist query on a filter whose timeline is already built adds
 * exactly its burst family to TraceIndex::memoryBytes — the bursts,
 * the running-max end column and the histogram checkpoint rows — so
 * the session cache's budget sees the checkpoint column.
 */
TEST(QueryResident, DhistChargesItsCheckpointColumn)
{
    TraceBundle bundle = randomBundle(13, BundleSpec{8, 4000});
    Session session(bundle);
    const TraceIndex &index = session.index();
    detail::TimelineSpec spec;
    spec.pids = {5, 6};
    index.filterColumns(spec, TraceIndex::kTimeline);
    const std::uint64_t before = index.memoryBytes();

    Query q;
    q.metric = QueryMetric::DurationHistogram;
    q.filter.pids = spec.pids;
    session.query({q}, 2);
    const std::uint64_t after = index.memoryBytes();

    const detail::BurstColumns &bc =
        index.filterColumns(spec, TraceIndex::kBursts).bursts;
    const std::uint64_t checkpointBytes =
        bc.bucketCum.capacity() * sizeof(std::uint32_t);
    ASSERT_GE(bc.bursts.size(), 10 * detail::ConcurrencyTimeline::kStride);
    EXPECT_EQ(checkpointBytes,
              (bc.bursts.size() / detail::ConcurrencyTimeline::kStride +
               1) * kDurationHistogramBuckets * sizeof(std::uint32_t));
    EXPECT_EQ(after - before,
              bc.bursts.capacity() * sizeof(Interval) +
                  bc.maxEnd.capacity() * sizeof(sim::SimTime) +
                  checkpointBytes);
    EXPECT_EQ(index.memoryBytes(), after); // nothing rebuilt
}

/**
 * The log2 duration bucket as a shift loop, one bit per iteration:
 * the oracle for the O(1) detail::durationHistogramBucket.
 */
unsigned
shiftLoopDurationBucket(sim::SimDuration d)
{
    unsigned bucket = 0;
    while (d > 1 && bucket + 1 < kDurationHistogramBuckets) {
        d >>= 1;
        ++bucket;
    }
    return bucket;
}

TEST(QueryKernel, DurationBucketMatchesShiftLoop)
{
    std::uint64_t mismatches = 0;
    for (sim::SimDuration d = 0; d < (sim::SimDuration{1} << 20); ++d)
        mismatches += detail::durationHistogramBucket(d) !=
                      shiftLoopDurationBucket(d);
    EXPECT_EQ(mismatches, 0u);

    for (unsigned k = 0; k < 64; ++k) {
        const sim::SimDuration p = sim::SimDuration{1} << k;
        for (sim::SimDuration d : {p - 1, p, p + 1})
            EXPECT_EQ(detail::durationHistogramBucket(d),
                      shiftLoopDurationBucket(d))
                << "d = " << d;
    }
    const sim::SimDuration top = ~sim::SimDuration{0};
    EXPECT_EQ(detail::durationHistogramBucket(top),
              shiftLoopDurationBucket(top));
    EXPECT_EQ(detail::durationHistogramBucket(top),
              kDurationHistogramBuckets - 1);
}

#if !defined(DESKPAR_OBS_DISABLED)

/** Spans named @p name in @p snapshot. */
std::size_t
spanCount(const obs::Snapshot &snapshot, std::string_view name)
{
    return static_cast<std::size_t>(std::count_if(
        snapshot.spans.begin(), snapshot.spans.end(),
        [&](const obs::SpanRecord &span) {
            return span.name != nullptr && name == span.name;
        }));
}

/**
 * Two threads racing one batch on one Session agree with the
 * reference, and the index sweeps each distinct filter exactly once
 * between them (a racer waits on the filter's slot instead of
 * sweeping again). A third run sweeps nothing.
 */
TEST(QueryResident, RacingBatchesBuildEachFilterOnce)
{
    TraceBundle bundle = randomBundle(5);
    std::vector<Query> batch = residentBatch();
    std::vector<QueryResult> reference =
        legacy::runQueries(bundle, batch);

    const bool wasEnabled = obs::enabled();
    obs::setEnabled(true);
    obs::reset();

    Session session(bundle);
    const std::size_t passes =
        session.plan(batch).explain().columnPasses;
    std::vector<QueryResult> first, second;
    std::thread a([&] { first = session.query(batch, 2); });
    std::thread b([&] { second = session.query(batch, 3); });
    a.join();
    b.join();
    obs::Snapshot racing = obs::collect();
    std::vector<QueryResult> third = session.query(batch, 7);
    obs::Snapshot repeat = obs::collect();
    obs::setEnabled(wasEnabled);

    expectResultsEqual(first, reference);
    expectResultsEqual(second, reference);
    expectResultsEqual(third, reference);
    EXPECT_GT(passes, 4u);
    EXPECT_EQ(racing.droppedSpans, 0u);
    EXPECT_EQ(spanCount(racing, "index.build.cswitch"), passes);
    EXPECT_EQ(spanCount(repeat, "index.build.cswitch"), 0u);
    EXPECT_GT(spanCount(repeat, "query.execute"), 0u);
}

/**
 * Spans are per batch and per series, never per row or window: a
 * 5,000-row batch and a 5,000-window series each stay far below one
 * span per row, and neither opens a query.row or a per-window
 * index.query.* span.
 */
TEST(QueryObs, RowHeavyBatchesAndSeriesOpenNoPerRowSpans)
{
    TraceBundle bundle = randomBundle(9);
    const sim::SimDuration window = kTraceLen / 5000;
    std::vector<Query> batch = {
        tlpSeriesQuery({}, window),
        gpuUtilSeriesQuery({5, 6}, window),
    };
    Query hist;
    hist.metric = QueryMetric::DurationHistogram;
    hist.groupBy = QueryGroupBy::TimeBucket;
    hist.bucket = window;
    batch.push_back(hist);
    std::vector<QueryResult> reference =
        legacy::runQueries(bundle, batch);

    const bool wasEnabled = obs::enabled();
    obs::setEnabled(true);
    for (unsigned threads : {1u, 2u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        Session session(bundle);
        obs::reset();
        std::vector<QueryResult> fused = session.query(batch, threads);
        TimeSeries tlp = session.tlpSeries({}, window);
        TimeSeries gpu = session.gpuUtilSeries({5, 6}, window);
        obs::Snapshot snapshot = obs::collect();

        expectResultsEqual(fused, reference);
        ASSERT_EQ(tlp.points.size(), reference[0].rows.size());
        for (std::size_t i = 0; i < tlp.points.size(); ++i) {
            EXPECT_EQ(tlp.points[i].value, reference[0].rows[i].value);
            EXPECT_EQ(gpu.points[i].value, reference[1].rows[i].value);
        }
        EXPECT_EQ(snapshot.droppedSpans, 0u);
        EXPECT_EQ(spanCount(snapshot, "query.row"), 0u);
        EXPECT_EQ(spanCount(snapshot, "index.query.concurrency"), 0u);
        EXPECT_EQ(spanCount(snapshot, "index.query.gpu"), 0u);
        EXPECT_EQ(spanCount(snapshot, "query.execute"), 1u);
        EXPECT_EQ(spanCount(snapshot, "index.series.concurrency"), 1u);
        EXPECT_EQ(spanCount(snapshot, "index.series.gpu"), 1u);
        EXPECT_LT(snapshot.spans.size(), 3 * 5000 / 16);
    }
    obs::setEnabled(wasEnabled);
}

#endif // !DESKPAR_OBS_DISABLED

/** Bytes of the file at @p path ("" when absent). */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

/**
 * The .dpidx spill carries only the index's own columns (blob v1):
 * the filters and families a query batch added to a Session must
 * not change a single byte of it.
 */
TEST(QueryResident, DpidxBytesUnchangedByQueryBatch)
{
    TraceBundle bundle = randomBundle(21);
    trace::sortBundle(bundle);
    // Pid-unique: ctest runs test cases as concurrent processes.
    const std::string path = ::testing::TempDir() +
                             "/query_resident_dpidx_" +
                             std::to_string(::getpid()) + ".etl";
    trace::writeEtl(bundle, path);

    OpenOptions options;
    options.useCache = false;
    options.refreshCache = false;
    auto spill = [&](bool runBatch) {
        OpenResult opened = openSession(path, options);
        EXPECT_FALSE(opened.warm);
        if (runBatch)
            opened.session->query(residentBatch(), 2);
        std::filesystem::remove(indexCachePath(path));
        std::string error;
        EXPECT_TRUE(saveIndexCache(*opened.session, path, error))
            << error;
        return slurp(indexCachePath(path));
    };
    std::string without = spill(false);
    std::string with = spill(true);
    ASSERT_FALSE(without.empty());
    EXPECT_TRUE(with == without) << "the query batch changed the spill";

    std::filesystem::remove(indexCachePath(path));
    std::filesystem::remove(path);
}

} // namespace

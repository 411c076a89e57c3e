/**
 * @file
 * Differential tests for the columnar trace index: every index-backed
 * query must be bit-identical to the legacy single-sweep reference on
 * randomized bundles (sorted, and disordered once canonicalized the
 * way every decoder leaves them), on corrupt-corpus
 * survivors, and on the empty-window / single-event edge cases. Double
 * comparisons deliberately use EXPECT_EQ — "close" is not the
 * contract, equality is.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "analysis/analyzer.hh"
#include "analysis/framerate.hh"
#include "analysis/gpu_util.hh"
#include "analysis/power.hh"
#include "analysis/responsiveness.hh"
#include "analysis/session.hh"
#include "analysis/timeseries.hh"
#include "analysis/tlp.hh"
#include "analysis/trace_index.hh"
#include "reference/analysis_legacy.hh"
#include "sim/cpu.hh"
#include "sim/gpu.hh"
#include "sim/logging.hh"
#include "support/corrupt.hh"
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
    bool shuffleGpu = false;
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
 * A random but structurally plausible bundle: sorted streams (unless
 * shuffled), a handful of named processes, GPU packets on all engines
 * and input markers for the responsiveness path.
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
    if (spec.shuffleGpu)
        shuffleEvents(bundle.gpuPackets, rng);

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

/** Pid sets every differential sweep is run with. */
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

void
expectProfilesEqual(const ConcurrencyProfile &got,
                    const ConcurrencyProfile &want)
{
    ASSERT_EQ(got.c.size(), want.c.size());
    for (std::size_t i = 0; i < got.c.size(); ++i)
        EXPECT_EQ(got.c[i], want.c[i]) << "c[" << i << "]";
    EXPECT_EQ(got.numCpus, want.numCpus);
    EXPECT_EQ(got.window, want.window);
    EXPECT_EQ(got.outOfRangeCpuEvents, want.outOfRangeCpuEvents);
}

void
expectGpuEqual(const GpuUtilization &got, const GpuUtilization &want)
{
    EXPECT_EQ(got.aggregateRatio, want.aggregateRatio);
    EXPECT_EQ(got.busyRatio, want.busyRatio);
    for (std::size_t i = 0; i < got.perEngine.size(); ++i)
        EXPECT_EQ(got.perEngine[i], want.perEngine[i])
            << "engine " << i;
    EXPECT_EQ(got.packetCount, want.packetCount);
    EXPECT_EQ(got.overlapped, want.overlapped);
}

void
expectFramesEqual(const FrameStats &got, const FrameStats &want)
{
    EXPECT_EQ(got.frames, want.frames);
    EXPECT_EQ(got.synthesizedFrames, want.synthesizedFrames);
    EXPECT_EQ(got.avgFps, want.avgFps);
    EXPECT_EQ(got.fpsStddev, want.fpsStddev);
    EXPECT_EQ(got.onePercentLowFps, want.onePercentLowFps);
}

void
expectResponsivenessEqual(const Responsiveness &got,
                          const Responsiveness &want)
{
    EXPECT_EQ(got.inputs, want.inputs);
    EXPECT_EQ(got.answered, want.answered);
    EXPECT_EQ(got.latency.count(), want.latency.count());
    EXPECT_EQ(got.latency.mean(), want.latency.mean());
    EXPECT_EQ(got.latency.min(), want.latency.min());
    EXPECT_EQ(got.latency.max(), want.latency.max());
    EXPECT_EQ(got.latency.stddev(), want.latency.stddev());
}

/**
 * Compare every windowed query of one bundle between the index and
 * the legacy sweeps: whole window plus @p windows random windows.
 */
void
compareAllWindows(const TraceBundle &bundle, std::uint64_t seed,
                  std::size_t windows)
{
    TraceIndex index(bundle);
    Rng rng(seed);
    for (const auto &pids : pidSets()) {
        expectProfilesEqual(index.concurrency(pids),
                            legacy::computeConcurrency(bundle, pids));
        expectGpuEqual(index.gpuUtil(pids),
                       legacy::computeGpuUtil(bundle, pids));
        for (std::size_t w = 0; w < windows; ++w) {
            auto [t0, t1] = randomWindow(rng, bundle);
            expectProfilesEqual(
                index.concurrency(pids, t0, t1),
                legacy::computeConcurrency(bundle, pids, t0, t1));
            expectGpuEqual(
                index.gpuUtil(pids, t0, t1),
                legacy::computeGpuUtil(bundle, pids, t0, t1));
        }
    }
}

TEST(TraceIndexDiff, RandomBundlesMatchLegacy)
{
    for (std::uint64_t seed = 0; seed < 12; ++seed)
        compareAllWindows(randomBundle(seed), seed ^ 0xABCD, 16);
}

TEST(TraceIndexDiff, UnsortedGpuStreamScansIdentically)
{
    BundleSpec spec;
    spec.shuffleGpu = true;
    for (std::uint64_t seed = 0; seed < 6; ++seed)
        compareAllWindows(randomBundle(seed, spec), seed + 31, 10);
}

TEST(TraceIndexDiff, OutOfRangeCpuEventsCountedIdentically)
{
    BundleSpec spec;
    spec.outOfRangeCpus = true;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        TraceBundle bundle = randomBundle(seed, spec);
        TraceIndex index(bundle);
        auto fromIndex = index.concurrency({});
        auto fromLegacy = legacy::computeConcurrency(bundle, {});
        expectProfilesEqual(fromIndex, fromLegacy);
        // The generator injected some: they must be surfaced in the
        // profile, not clamp-folded into the top histogram level.
        EXPECT_GT(fromIndex.outOfRangeCpuEvents, 0u);
        double sum = 0.0;
        for (double v : fromIndex.c)
            sum += v;
        EXPECT_NEAR(sum, 1.0, 1e-9);
        compareAllWindows(bundle, seed + 47, 8);
    }
}

TEST(TraceIndexDiff, RepeatedQueriesAreDeterministic)
{
    TraceBundle bundle = randomBundle(4);
    TraceIndex index(bundle);
    index.warm({5});
    auto first = index.concurrency({5}, 1000, kTraceLen / 2);
    auto second = index.concurrency({5}, 1000, kTraceLen / 2);
    expectProfilesEqual(first, second);
    expectGpuEqual(index.gpuUtil({5}), index.gpuUtil({5}));
    expectFramesEqual(index.frameStats({5}), index.frameStats({5}));
}

TEST(TraceIndexDiff, ResponsivenessPowerMatchLegacy)
{
    sim::CpuSpec cpu;
    sim::GpuSpec gpu;
    for (std::uint64_t seed = 0; seed < 8; ++seed) {
        TraceBundle bundle = randomBundle(seed);
        TraceIndex index(bundle);
        for (const auto &pids : pidSets()) {
            expectResponsivenessEqual(
                index.responsiveness(pids),
                legacy::computeResponsiveness(bundle, pids));
        }
        auto fromIndex = index.power(cpu, gpu);
        auto fromLegacy = legacy::estimatePower(bundle, cpu, gpu);
        EXPECT_EQ(fromIndex.cpuWatts, fromLegacy.cpuWatts);
        EXPECT_EQ(fromIndex.gpuWatts, fromLegacy.gpuWatts);
        EXPECT_EQ(fromIndex.seconds, fromLegacy.seconds);
    }
}

TEST(TraceIndexDiff, FusedAnalyzeAppMatchesLegacyComposition)
{
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        TraceBundle bundle = randomBundle(seed);
        Session session(bundle);
        for (const auto &pids : pidSets()) {
            AppMetrics fused = session.app(pids);
            expectProfilesEqual(
                fused.concurrency,
                legacy::computeConcurrency(bundle, pids));
            expectGpuEqual(fused.gpu,
                           legacy::computeGpuUtil(bundle, pids));
        }
    }
}

TEST(TraceIndexDiff, TimeSeriesPointwiseMatchesLegacyWindows)
{
    TraceBundle bundle = randomBundle(7);
    Session session(bundle);
    const sim::SimDuration window = sim::msec(1);
    for (const auto &pids : {trace::PidSet{}, trace::PidSet{5}}) {
        TimeSeries tlp = session.tlpSeries(pids, window);
        TimeSeries conc = session.concurrencySeries(pids, window);
        TimeSeries gpu = session.gpuUtilSeries(pids, window);
        ASSERT_FALSE(tlp.points.empty());
        ASSERT_EQ(tlp.points.size(), conc.points.size());
        ASSERT_EQ(tlp.points.size(), gpu.points.size());
        for (std::size_t i = 0; i < tlp.points.size(); ++i) {
            sim::SimTime t0 = tlp.points[i].t;
            sim::SimTime t1 =
                std::min(t0 + window, bundle.stopTime);
            auto profile =
                legacy::computeConcurrency(bundle, pids, t0, t1);
            EXPECT_EQ(tlp.points[i].value, profile.tlp())
                << "window " << i;
            EXPECT_EQ(conc.points[i].value, profile.utilization())
                << "window " << i;
            EXPECT_EQ(gpu.points[i].value,
                      legacy::computeGpuUtil(bundle, pids, t0, t1)
                          .utilizationPercent())
                << "window " << i;
        }
    }
}

TEST(TraceIndexEdge, EmptyWindowFatalOnBothPaths)
{
    TraceBundle bundle = randomBundle(1);
    TraceIndex index(bundle);
    EXPECT_THROW(index.concurrency({}, 10, 10), FatalError);
    EXPECT_THROW(legacy::computeConcurrency(bundle, {}, 10, 10),
                 FatalError);
    EXPECT_THROW(index.gpuUtil({}, 10, 10), FatalError);
    EXPECT_THROW(legacy::computeGpuUtil(bundle, {}, 10, 10),
                 FatalError);

    TraceBundle noCpus = randomBundle(1);
    noCpus.numLogicalCpus = 0;
    TraceIndex noCpusIndex(noCpus);
    EXPECT_THROW(noCpusIndex.concurrency({}), FatalError);
    EXPECT_THROW(legacy::computeConcurrency(noCpus, {}), FatalError);
}

TEST(TraceIndexEdge, EmptyBundleMatchesLegacy)
{
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = 1000;
    bundle.numLogicalCpus = 4;
    compareAllWindows(bundle, 5, 6);
    TraceIndex index(bundle);
    expectResponsivenessEqual(
        index.responsiveness({}),
        legacy::computeResponsiveness(bundle, {}));
}

TEST(TraceIndexEdge, SingleEventBundleMatchesLegacy)
{
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = 1000;
    bundle.numLogicalCpus = 2;
    CSwitchEvent e;
    e.timestamp = 400;
    e.cpu = 1;
    e.newPid = 5;
    e.newTid = 50;
    bundle.cswitches.push_back(e);
    TraceIndex index(bundle);
    for (const auto &pids : pidSets()) {
        expectProfilesEqual(index.concurrency(pids),
                            legacy::computeConcurrency(bundle, pids));
        // Windows before, spanning, and after the only event.
        for (auto [t0, t1] :
             {std::pair<sim::SimTime, sim::SimTime>{0, 400},
              {0, 401},
              {399, 401},
              {400, 1000},
              {401, 5000},
              {2000, 3000}}) {
            expectProfilesEqual(
                index.concurrency(pids, t0, t1),
                legacy::computeConcurrency(bundle, pids, t0, t1));
        }
    }
}

TEST(TraceIndexEdge, ZeroDurationBundlePowerMatchesLegacy)
{
    TraceBundle bundle;
    bundle.numLogicalCpus = 4;
    sim::CpuSpec cpu;
    sim::GpuSpec gpu;
    TraceIndex index(bundle);
    auto fromIndex = index.power(cpu, gpu);
    auto fromLegacy = legacy::estimatePower(bundle, cpu, gpu);
    EXPECT_EQ(fromIndex.cpuWatts, fromLegacy.cpuWatts);
    EXPECT_EQ(fromIndex.gpuWatts, fromLegacy.gpuWatts);
    EXPECT_EQ(fromIndex.seconds, fromLegacy.seconds);
}

/**
 * Fingerprint helpers for the corrupt corpus: exact hexfloat dumps so
 * "identical value or identical failure" can be compared as strings.
 */
std::string
fingerprint(const ConcurrencyProfile &p)
{
    std::ostringstream os;
    os << std::hexfloat;
    for (double v : p.c)
        os << v << ',';
    os << p.numCpus << ',' << p.window << ',' << p.outOfRangeCpuEvents;
    return os.str();
}

std::string
fingerprint(const GpuUtilization &u)
{
    std::ostringstream os;
    os << std::hexfloat << u.aggregateRatio << ',' << u.busyRatio;
    for (double v : u.perEngine)
        os << ',' << v;
    os << ',' << u.packetCount << ',' << u.overlapped;
    return os.str();
}

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

/** The panic of a call @p fn, or "no panic". */
template <typename Fn>
std::string
panicOf(Fn &&fn)
{
    try {
        fn();
    } catch (const PanicError &e) {
        return e.what();
    }
    return "no panic";
}

const std::string kDisorderedPanic =
    "panic: buildConcurrencyTimeline: cswitch stream out of timestamp "
    "order";

/**
 * A disordered context-switch stream reaches the index only in its
 * canonical form: every decoder stable-sorts it (trace::canonicalize).
 * That form must answer every window exactly as the reference sweep
 * does on the sorted stream. A hand-built bundle that skipped the
 * decoders is refused with the timeline builder's panic.
 */
TEST(TraceIndexDiff, DisorderedCswitchStreamAnswersAsSorted)
{
    BundleSpec spec;
    spec.shuffleCswitches = true;
    for (std::uint64_t seed = 0; seed < 6; ++seed) {
        TraceBundle disordered = randomBundle(seed, spec);
        EXPECT_EQ(panicOf([&] {
                      TraceIndex(disordered).concurrency({});
                  }),
                  kDisorderedPanic);

        TraceBundle sorted = disordered;
        trace::sortBundle(sorted);
        TraceBundle bundle = disordered;
        trace::canonicalize(bundle);
        TraceIndex index(bundle);
        Rng rng(seed + 17);
        for (const auto &pids : pidSets()) {
            for (std::size_t w = 0; w < 10; ++w) {
                sim::SimTime t0 = bundle.startTime;
                sim::SimTime t1 = bundle.stopTime;
                if (w > 0) {
                    auto [a, b] = randomWindow(rng, bundle);
                    t0 = a;
                    t1 = b;
                }
                EXPECT_EQ(fingerprint(index.concurrency(pids, t0, t1)),
                          fingerprint(legacy::computeConcurrency(
                              sorted, pids, t0, t1)));
            }
        }
    }
}

/**
 * A series resolves its timeline once. On a canonicalized disordered
 * stream each point must equal the reference window sweep of the
 * sorted stream; on a hand-built disordered bundle the series panics.
 */
TEST(TraceIndexDiff, TimeSeriesOnDisorderedStreamMatchesLegacyWindows)
{
    BundleSpec spec;
    spec.shuffleCswitches = true;
    const sim::SimDuration window = sim::msec(1);
    auto exact = [](double v) {
        std::ostringstream os;
        os << std::hexfloat << v << ',';
        return os.str();
    };
    for (std::uint64_t seed = 0; seed < 4; ++seed) {
        TraceBundle disordered = randomBundle(seed, spec);
        EXPECT_EQ(panicOf([&] {
                      Session(disordered).tlpSeries({}, window);
                  }),
                  kDisorderedPanic);

        TraceBundle bundle = disordered;
        trace::canonicalize(bundle);
        Session session(bundle);
        for (const auto &pids : pidSets()) {
            std::string series;
            for (const TimePoint &p :
                 session.tlpSeries(pids, window).points)
                series += exact(p.value);
            std::string windows;
            for (sim::SimTime t0 = bundle.startTime;
                 t0 < bundle.stopTime; t0 += window) {
                sim::SimTime t1 = std::min(t0 + window, bundle.stopTime);
                windows += exact(
                    legacy::computeConcurrency(bundle, pids, t0, t1)
                        .tlp());
            }
            EXPECT_EQ(series, windows) << "seed " << seed;
        }
    }
}

/**
 * Lenient-mode survivors of the fault-injection corpus are exactly
 * the hostile inputs the index must not diverge on: disordered
 * streams, wild cpu ids, truncated windows. For every survivor the
 * index and the legacy sweep must produce the same value — or fail
 * the same way.
 */
TEST(TraceIndexCorpus, SurvivorsMatchLegacy)
{
    TraceBundle original = randomBundle(99);
    std::ostringstream serialized;
    trace::writeEtl(original, serialized);
    trace::FaultInjector injector(serialized.str(), 0xfeedf00dull);

    trace::ParseOptions options;
    options.mode = trace::ParseMode::Lenient;
    options.source = "corpus";

    std::size_t compared = 0;
    for (std::size_t i = 0; i < 96; ++i) {
        std::string bytes = injector.mutant(i);
        trace::IngestReport report;
        TraceBundle mutant =
            trace::decodeEtl(trace::io::ByteSpan(bytes), options, report);
        // Headers the analyses reject outright are not interesting
        // comparisons (the reader refuses CPU counts above
        // kMaxLogicalCpus, leaving 0).
        if (mutant.numLogicalCpus == 0)
            continue;
        ++compared;
        SCOPED_TRACE("mutant " + std::to_string(i) + ": " +
                     injector.mutationFor(i).describe());

        TraceIndex index(mutant);
        Rng rng(i + 1);
        for (std::size_t w = 0; w < 4; ++w) {
            sim::SimTime t0 = mutant.startTime;
            sim::SimTime t1 = mutant.stopTime;
            if (w > 0) {
                auto [a, b] = randomWindow(rng, mutant);
                t0 = a;
                t1 = b;
            }
            EXPECT_EQ(
                outcome([&] {
                    return fingerprint(index.concurrency({}, t0, t1));
                }),
                outcome([&] {
                    return fingerprint(
                        legacy::computeConcurrency(mutant, {}, t0, t1));
                }));
            EXPECT_EQ(
                outcome([&] {
                    return fingerprint(index.gpuUtil({}, t0, t1));
                }),
                outcome([&] {
                    return fingerprint(
                        legacy::computeGpuUtil(mutant, {}, t0, t1));
                }));
        }
    }
    // The corpus must actually exercise the comparison: if every
    // mutant were rejected the test would vacuously pass.
    EXPECT_GT(compared, 10u);
}

} // namespace

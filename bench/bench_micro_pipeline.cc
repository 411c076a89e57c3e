/**
 * @file
 * google-benchmark micro-benchmarks for the measurement pipeline
 * itself: trace generation (simulation throughput), TLP computation,
 * GPU-utilization computation, ETL serialization and CSV export, and
 * trace ingestion (zero-copy mapped, serial and parallel chunked).
 * These quantify the toolkit's own costs, independent of the paper's
 * experiments.
 *
 * The custom main() then runs the instrumentation overhead gate
 * (checkObsOverhead) and exits 1 when it fails; run only the gate
 * with --benchmark_filter='^$'.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <sstream>

#include "analysis/session.hh"
#include "apps/harness.hh"
#include "apps/registry.hh"
#include "obs/obs.hh"
#include "sim/parallel.hh"
#include "trace/csv.hh"
#include "trace/etl.hh"
#include "trace/io.hh"

using namespace deskpar;

namespace {

/** One shared trace: HandBrake, 12 cores, 10 simulated seconds. */
const trace::TraceBundle &
sampleBundle()
{
    static const trace::TraceBundle kBundle = [] {
        apps::RunOptions options;
        options.iterations = 1;
        options.duration = sim::sec(10.0);
        auto result = apps::runWorkload("handbrake", options);
        return result.lastBundle;
    }();
    return kBundle;
}

const trace::PidSet &
samplePids()
{
    static const trace::PidSet kPids =
        trace::pidsWithPrefix(sampleBundle(), "handbrake");
    return kPids;
}

void
BM_SimulateSecond(benchmark::State &state)
{
    apps::RunOptions options;
    options.iterations = 1;
    options.duration = sim::sec(static_cast<double>(state.range(0)));
    for (auto _ : state) {
        auto result = apps::runWorkload("handbrake", options);
        benchmark::DoNotOptimize(result.tlp());
    }
    state.SetItemsProcessed(state.iterations() * state.range(0));
}
BENCHMARK(BM_SimulateSecond)->Arg(1)->Arg(5);

void
BM_ComputeTlp(benchmark::State &state)
{
    const auto &bundle = sampleBundle();
    const auto &pids = samplePids();
    // One fresh Session per iteration: the cost of a one-off metric.
    for (auto _ : state) {
        auto profile = analysis::Session(bundle).concurrency(pids);
        benchmark::DoNotOptimize(profile.tlp());
    }
    state.SetItemsProcessed(state.iterations() *
                            bundle.cswitches.size());
}
BENCHMARK(BM_ComputeTlp);

void
BM_ComputeGpuUtil(benchmark::State &state)
{
    const auto &bundle = sampleBundle();
    const auto &pids = samplePids();
    for (auto _ : state) {
        auto util = analysis::Session(bundle).gpuUtil(pids);
        benchmark::DoNotOptimize(util.aggregateRatio);
    }
}
BENCHMARK(BM_ComputeGpuUtil);

void
BM_TlpTimeSeries(benchmark::State &state)
{
    const auto &bundle = sampleBundle();
    const auto &pids = samplePids();
    for (auto _ : state) {
        auto series = analysis::Session(bundle).tlpSeries(
            pids, sim::msec(250));
        benchmark::DoNotOptimize(series.maxValue());
    }
}
BENCHMARK(BM_TlpTimeSeries);

/** Warm static Session over the sample bundle (shared across benches). */
const analysis::Session &
sampleSession()
{
    static const analysis::Session session(sampleBundle());
    static const bool warmed =
        (session.index().warm(samplePids()), true);
    (void)warmed;
    return session;
}

void
BM_IndexBuild(benchmark::State &state)
{
    // Cold build plus one whole-window query: what a one-off
    // Session query pays per bundle.
    const auto &bundle = sampleBundle();
    const auto &pids = samplePids();
    for (auto _ : state) {
        analysis::TraceIndex index(bundle);
        auto profile = index.concurrency(pids);
        benchmark::DoNotOptimize(profile.tlp());
    }
    state.SetItemsProcessed(state.iterations() *
                            bundle.cswitches.size());
}
BENCHMARK(BM_IndexBuild);

void
BM_IndexWindowQuery(benchmark::State &state)
{
    // Warm windowed query: the timeline figures' per-window cost.
    const auto &session = sampleSession();
    const auto &bundle = sampleBundle();
    const auto &pids = samplePids();
    sim::SimTime t0 = bundle.startTime;
    sim::SimTime t1 = std::min(t0 + sim::msec(250), bundle.stopTime);
    for (auto _ : state) {
        auto profile = session.concurrency(pids, t0, t1);
        benchmark::DoNotOptimize(profile.tlp());
    }
}
BENCHMARK(BM_IndexWindowQuery);

void
BM_IndexTlpTimeSeries(benchmark::State &state)
{
    // Full 250 ms-window TLP series on a warm Session; compare
    // against BM_TlpTimeSeries (which builds its index per call).
    const auto &session = sampleSession();
    const auto &pids = samplePids();
    for (auto _ : state) {
        auto series = session.tlpSeries(pids, sim::msec(250));
        benchmark::DoNotOptimize(series.maxValue());
    }
}
BENCHMARK(BM_IndexTlpTimeSeries);

void
BM_AnalyzeAppFused(benchmark::State &state)
{
    const auto &session = sampleSession();
    const auto &pids = samplePids();
    for (auto _ : state) {
        auto metrics = session.app(pids);
        benchmark::DoNotOptimize(metrics.tlp());
    }
}
BENCHMARK(BM_AnalyzeAppFused);

void
BM_EtlWrite(benchmark::State &state)
{
    const auto &bundle = sampleBundle();
    for (auto _ : state) {
        std::ostringstream out;
        trace::writeEtl(bundle, out);
        benchmark::DoNotOptimize(out.str().size());
    }
    state.SetItemsProcessed(state.iterations() *
                            bundle.totalEvents());
}
BENCHMARK(BM_EtlWrite);

void
BM_EtlRoundTrip(benchmark::State &state)
{
    const auto &bundle = sampleBundle();
    std::ostringstream out;
    trace::writeEtl(bundle, out);
    const std::string data = out.str();
    trace::ParseOptions popts;
    for (auto _ : state) {
        trace::IngestReport report;
        auto loaded = trace::decodeEtl(data, popts, report);
        benchmark::DoNotOptimize(loaded.cswitches.size());
    }
    state.SetBytesProcessed(state.iterations() * data.size());
}
BENCHMARK(BM_EtlRoundTrip);

void
BM_CsvExport(benchmark::State &state)
{
    const auto &bundle = sampleBundle();
    for (auto _ : state) {
        std::ostringstream out;
        trace::writeCpuUsageCsv(bundle, out);
        benchmark::DoNotOptimize(out.str().size());
    }
}
BENCHMARK(BM_CsvExport);

/* ------------------------------------------------------------------ */
/*  Ingest benches: zero-copy mapped, cold and warm, and parallel      */
/* ------------------------------------------------------------------ */

/** The sample bundle exported once to disk, for file-ingest benches. */
const std::string &
ingestCsvPath()
{
    static const std::string kPath = [] {
        auto path = (std::filesystem::temp_directory_path() /
                     "deskpar_micro_ingest.csv")
                        .string();
        trace::writeCpuUsageCsv(sampleBundle(), path);
        return path;
    }();
    return kPath;
}

const std::string &
ingestEtlPath()
{
    static const std::string kPath = [] {
        auto path = (std::filesystem::temp_directory_path() /
                     "deskpar_micro_ingest.etl")
                        .string();
        trace::writeEtl(sampleBundle(), path);
        return path;
    }();
    return kPath;
}

std::size_t
fileSize(const std::string &path)
{
    return static_cast<std::size_t>(
        std::filesystem::file_size(path));
}

/** Mapped span decode at @p threads (1 = zero-copy serial). */
std::size_t
ingestCsvMapped(unsigned threads)
{
    trace::io::MappedFile file =
        trace::io::MappedFile::openOrThrow(ingestCsvPath(), "bench");
    trace::TraceBundle bundle;
    trace::ParseOptions popts;
    popts.source = ingestCsvPath();
    popts.threads = threads;
    auto report = trace::decodeCpuUsageCsv(file.span(), bundle, popts);
    return bundle.cswitches.size() +
           static_cast<std::size_t>(report.recordsParsed);
}

/** Mapped span decode (.etl v3 decodes serially). */
std::size_t
ingestEtlMapped()
{
    trace::io::MappedFile file =
        trace::io::MappedFile::openOrThrow(ingestEtlPath(), "bench");
    trace::ParseOptions popts;
    popts.source = ingestEtlPath();
    trace::IngestReport report;
    auto bundle = trace::decodeEtl(file.span(), popts, report);
    return bundle.totalEvents();
}

void
BM_CsvIngestMappedCold(benchmark::State &state)
{
    // Zero-copy single-thread including the open/map cost per file.
    for (auto _ : state)
        benchmark::DoNotOptimize(ingestCsvMapped(1));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(fileSize(ingestCsvPath())));
}
BENCHMARK(BM_CsvIngestMappedCold);

void
BM_CsvIngestMappedWarm(benchmark::State &state)
{
    // Pure decode over an already-mapped span: the zero-copy parser
    // alone, against BM_CsvIngestMappedCold for the open/map cost.
    trace::io::MappedFile file =
        trace::io::MappedFile::openOrThrow(ingestCsvPath(), "bench");
    trace::ParseOptions popts;
    popts.source = ingestCsvPath();
    popts.threads = 1;
    for (auto _ : state) {
        trace::TraceBundle bundle;
        auto report =
            trace::decodeCpuUsageCsv(file.span(), bundle, popts);
        benchmark::DoNotOptimize(bundle.cswitches.size() +
                                 report.recordsParsed);
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(file.size()));
}
BENCHMARK(BM_CsvIngestMappedWarm);

void
BM_CsvIngestParallel(benchmark::State &state)
{
    unsigned jobs = sim::resolveJobs();
    for (auto _ : state)
        benchmark::DoNotOptimize(ingestCsvMapped(jobs));
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(fileSize(ingestCsvPath())));
}
// Wall time, not the calling thread's CPU time: the chunk decode runs
// on worker threads, so CPU-time throughput would overstate it.
BENCHMARK(BM_CsvIngestParallel)->UseRealTime();

void
BM_EtlIngestMappedCold(benchmark::State &state)
{
    for (auto _ : state)
        benchmark::DoNotOptimize(ingestEtlMapped());
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(fileSize(ingestEtlPath())));
}
BENCHMARK(BM_EtlIngestMappedCold);

void
BM_EtlIngestMappedWarm(benchmark::State &state)
{
    trace::io::MappedFile file =
        trace::io::MappedFile::openOrThrow(ingestEtlPath(), "bench");
    trace::ParseOptions popts;
    popts.source = ingestEtlPath();
    popts.threads = 1;
    for (auto _ : state) {
        trace::IngestReport report;
        auto bundle = trace::decodeEtl(file.span(), popts, report);
        benchmark::DoNotOptimize(bundle.totalEvents());
    }
    state.SetBytesProcessed(
        static_cast<std::int64_t>(state.iterations()) *
        static_cast<std::int64_t>(file.size()));
}
BENCHMARK(BM_EtlIngestMappedWarm);

/* ------------------------------------------------------------------ */
/*  Observability overhead: span/counter cost, recording off vs on     */
/* ------------------------------------------------------------------ */

void
BM_ObsSpanDisabled(benchmark::State &state)
{
    // The runtime-disabled cost contract: one relaxed atomic load,
    // no clock read, no allocation.
    obs::setEnabled(false);
    for (auto _ : state) {
        obs::Span span("bench.obs.span", obs::SpanKind::Other);
    }
}
BENCHMARK(BM_ObsSpanDisabled);

void
BM_ObsSpanEnabled(benchmark::State &state)
{
    obs::setEnabled(true);
    obs::reset();
    int sinceReset = 0;
    for (auto _ : state) {
        obs::Span span("bench.obs.span", obs::SpanKind::Other);
        // Drain before the ring saturates so the measured path stays
        // the record path, not the cheaper drop path.
        if (++sinceReset == 32768) {
            state.PauseTiming();
            obs::reset();
            state.ResumeTiming();
            sinceReset = 0;
        }
    }
    obs::setEnabled(false);
    obs::reset();
}
BENCHMARK(BM_ObsSpanEnabled);

void
BM_ObsCounterAdd(benchmark::State &state)
{
    obs::setEnabled(true);
    obs::reset();
    for (auto _ : state)
        obs::counterAdd("bench.obs.counter", 1);
    obs::setEnabled(false);
    obs::reset();
}
BENCHMARK(BM_ObsCounterAdd);

/* ------------------------------------------------------------------ */
/*  Overhead gate: the instrumented pipeline, recording off vs on      */
/* ------------------------------------------------------------------ */

/** DESIGN.md section 12: enabled-mode wall within 3% of disabled. */
constexpr double kOverheadBudget = 0.03;
/** Timed passes per mode in one measurement. */
constexpr int kRounds = 10;
/** Pipelines per timed pass, sized so one measurement takes ~3 s. */
constexpr int kPipelinesPerPass = 400;

/** Mapped .etl ingest, index build and one concurrency query. */
void
pipelineOnce()
{
    trace::io::MappedFile file =
        trace::io::MappedFile::openOrThrow(ingestEtlPath(), "bench");
    trace::ParseOptions popts;
    popts.source = ingestEtlPath();
    popts.threads = 1;
    trace::IngestReport report;
    auto bundle = trace::decodeEtl(file.span(), popts, report);
    analysis::TraceIndex index(bundle);
    auto profile = index.concurrency(samplePids());
    benchmark::DoNotOptimize(profile.tlp());
}

/** Wall seconds of one pass of pipelines with recording @p on. */
double
timedPass(bool on)
{
    obs::setEnabled(on);
    obs::reset();
    auto start = std::chrono::steady_clock::now();
    for (int i = 0; i < kPipelinesPerPass; ++i) {
        pipelineOnce();
        // Drain periodically so the enabled pass measures the record
        // path throughout, never the saturated-ring drops.
        if ((i & 15) == 15)
            obs::reset();
    }
    std::chrono::duration<double> wall =
        std::chrono::steady_clock::now() - start;
    obs::setEnabled(false);
    obs::reset();
    return wall.count();
}

/**
 * One measurement: kRounds rounds, each a pass with recording off
 * and a pass with it on, alternating which runs first so a drift in
 * host speed lands on both modes alike. Each mode keeps its fastest
 * pass (noise only ever adds time); returns min(on) / min(off) - 1.
 * Prints every round, both minima and the overhead.
 */
double
measureOverhead()
{
    double best[2] = {1e300, 1e300}; // [0] off, [1] on
    for (int round = 0; round < kRounds; ++round) {
        bool onFirst = round % 2 == 1;
        double wall[2];
        wall[onFirst] = timedPass(onFirst);
        wall[!onFirst] = timedPass(!onFirst);
        std::printf("  round %2d (%s first): off %8.3f ms, "
                    "on %8.3f ms\n",
                    round, onFirst ? "on " : "off", wall[0] * 1e3,
                    wall[1] * 1e3);
        best[0] = std::min(best[0], wall[0]);
        best[1] = std::min(best[1], wall[1]);
    }
    double overhead = best[1] / best[0] - 1.0;
    std::printf("  min off %.3f ms, min on %.3f ms: overhead %+.2f%%\n",
                best[0] * 1e3, best[1] * 1e3, overhead * 1e2);
    return overhead;
}

/**
 * The instrumentation overhead gate: the instrumented pipeline timed
 * with recording off and on in one process. A reading over the 3%
 * budget is measured once more, and the gate fails only when both
 * readings are over it: one reading over budget on a healthy build
 * is rare noise, two in a row are not. Returns the exit status.
 */
int
checkObsOverhead()
{
    bool wasEnabled = obs::enabled();
    pipelineOnce(); // build the sample trace outside the timed passes
    std::printf("obs overhead: %d pipelines per pass, %d rounds, "
                "budget %.0f%%\n",
                kPipelinesPerPass, kRounds, kOverheadBudget * 1e2);
    bool over = measureOverhead() > kOverheadBudget;
    if (over) {
        std::printf("over budget; measuring again\n");
        over = measureOverhead() > kOverheadBudget;
    }
    obs::setEnabled(wasEnabled);
    if (over) {
        std::fprintf(stderr, "FAIL: recording overhead over the %.0f%% "
                             "budget in two measurements\n",
                     kOverheadBudget * 1e2);
        return 1;
    }
    std::printf("PASS: recording overhead within the %.0f%% budget\n",
                kOverheadBudget * 1e2);
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    benchmark::Initialize(&argc, argv);
    if (benchmark::ReportUnrecognizedArguments(argc, argv))
        return 1;
    benchmark::RunSpecifiedBenchmarks();
    benchmark::Shutdown();
    return checkObsOverhead();
}

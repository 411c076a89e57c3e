/**
 * @file
 * google-benchmark micro-benchmarks for the measurement pipeline
 * itself: trace generation (simulation throughput), TLP computation,
 * GPU-utilization computation, ETL serialization and CSV export, and
 * trace ingestion (zero-copy mapped, serial and parallel chunked).
 * These quantify the toolkit's own costs, independent of the paper's
 * experiments.
 *
 * The custom main() additionally runs a timed ingest record pass
 * whose wall times land in BENCH_suite.json (SuiteTimer) so
 * tools/bench_compare gates ingest throughput run over run; CI runs
 * just that part via --benchmark_filter.
 */

#include <benchmark/benchmark.h>

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <filesystem>
#include <functional>
#include <sstream>

#include "analysis/session.hh"
#include "apps/harness.hh"
#include "apps/registry.hh"
#include "bench_util.hh"
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

/**
 * Timed ingest record pass: a few repetitions of each ingest variant
 * under a SuiteTimer so BENCH_suite.json captures the throughput
 * trajectory and tools/bench_compare can gate regressions.
 */
void
recordIngestBenches()
{
    // Reps chosen so every record spans tens of milliseconds: the
    // JSON wall time has 1 ms resolution, and a record near that
    // floor turns quantization into a phantom bench_compare
    // regression. The .etl decode is ~20x the CSV throughput, so it
    // needs proportionally more repetitions.
    const char *fast = std::getenv("DESKPAR_FAST");
    bool isFast = fast && fast[0] == '1';
    int csvReps = isFast ? 10 : 25;
    int etlReps = isFast ? 100 : 250;
    // Min-of-3 around each reps block: a single-shot record flaps
    // with scheduler noise and trips bench_compare's gate.
    auto record = [](const char *name, int reps,
                     const std::function<void()> &fn) {
        double wall = bench::minWallSeconds(3, [&]() {
            for (int i = 0; i < reps; ++i)
                fn();
        });
        bench::appendBenchRecord(name, wall);
    };
    unsigned jobs = sim::resolveJobs();
    record("micro_ingest_csv_mapped", csvReps,
           [] { ingestCsvMapped(1); });
    record("micro_ingest_csv_parallel", csvReps,
           [jobs] { ingestCsvMapped(jobs); });
    record("micro_ingest_etl_mapped", etlReps,
           [] { ingestEtlMapped(); });
}

/**
 * Timed span-overhead pass: the same hot loop with recording off and
 * on, as micro_obs_* records in BENCH_suite.json. These track the
 * per-span cost trend; the end-to-end overhead gate is
 * recordObsOverheadRecords below.
 */
void
recordObsBenches()
{
    const char *fast = std::getenv("DESKPAR_FAST");
    bool isFast = fast && fast[0] == '1';
    // Disabled spans cost nanoseconds, enabled ones two clock reads:
    // reps sized so both records land well above the JSON wall-time
    // resolution (see recordIngestBenches).
    int disabledReps = isFast ? 50'000'000 : 200'000'000;
    int enabledReps = isFast ? 2'000'000 : 8'000'000;
    bool wasEnabled = obs::enabled();
    auto spin = [](bool enabled, int reps) {
        obs::setEnabled(enabled);
        obs::reset();
        for (int i = 0; i < reps; ++i) {
            obs::Span span("micro.obs.span", obs::SpanKind::Other,
                           static_cast<std::uint64_t>(i));
            if ((i & 0xffff) == 0xffff)
                obs::reset(); // keep the ring from saturating
        }
        obs::setEnabled(false);
        obs::reset();
    };
    bench::appendBenchRecord(
        "micro_obs_span_disabled",
        bench::minWallSeconds(3,
                              [&]() { spin(false, disabledReps); }));
    bench::appendBenchRecord(
        "micro_obs_span_enabled",
        bench::minWallSeconds(3,
                              [&]() { spin(true, enabledReps); }));
    obs::setEnabled(wasEnabled);
}

/**
 * End-to-end instrumentation overhead gate: time the instrumented
 * mapped ingest + index + query pipeline with recording off and on,
 * in one process, and emit the two walls as a same-keyed
 * "micro_obs_pipeline" record pair (off first). In a fresh
 * $DESKPAR_BENCH_JSON file this is the only key with two records, so
 * `bench_compare --file ... --threshold 3` gates exactly the off->on
 * delta — the enabled-mode budget from DESIGN.md section 12. The
 * passes interleave and each mode keeps its min-of-N wall, so a
 * scheduling hiccup in one round can't fake a regression.
 */
void
recordObsOverheadRecords()
{
    const char *fast = std::getenv("DESKPAR_FAST");
    bool isFast = fast && fast[0] == '1';
    // Sized so each timed pass spans a few hundred ms: long enough
    // that the 1 ms record resolution and scheduler noise sit well
    // under the 3% threshold, short enough for CI.
    int reps = isFast ? 1000 : 4000;
    const int kRounds = 3;
    bool wasEnabled = obs::enabled();

    auto pipelineOnce = [] {
        trace::io::MappedFile file = trace::io::MappedFile::openOrThrow(
            ingestEtlPath(), "bench");
        trace::ParseOptions popts;
        popts.source = ingestEtlPath();
        popts.threads = 1;
        trace::IngestReport report;
        auto bundle = trace::decodeEtl(file.span(), popts, report);
        analysis::TraceIndex index(bundle);
        auto profile = index.concurrency(samplePids());
        benchmark::DoNotOptimize(profile.tlp());
    };
    auto timedPass = [&](bool enabled) {
        obs::setEnabled(enabled);
        obs::reset();
        auto start = std::chrono::steady_clock::now();
        for (int i = 0; i < reps; ++i) {
            pipelineOnce();
            // Drain periodically so the enabled pass measures the
            // record path throughout, never the saturated-ring drops.
            if ((i & 15) == 15)
                obs::reset();
        }
        std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;
        obs::setEnabled(false);
        obs::reset();
        return wall.count();
    };

    double best[2] = {1e300, 1e300};
    for (int round = 0; round < kRounds; ++round)
        for (int mode = 0; mode < 2; ++mode)
            best[mode] = std::min(best[mode], timedPass(mode == 1));
    bench::appendBenchRecord("micro_obs_pipeline", best[0]);
    bench::appendBenchRecord("micro_obs_pipeline", best[1]);
    obs::setEnabled(wasEnabled);
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
    recordIngestBenches();
    recordObsBenches();
    recordObsOverheadRecords();
    return 0;
}

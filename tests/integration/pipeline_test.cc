/**
 * @file
 * End-to-end integration tests of the paper's Figure 1 pipeline:
 * run a workload -> trace -> .etl container -> CSV export -> parse
 * back -> analyze, checking the metrics survive each stage; plus
 * cross-module trend checks (core scaling, SMT) that tie the
 * workload models to the analysis library.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "analysis/analyzer.hh"
#include "analysis/session.hh"
#include "apps/harness.hh"
#include "trace/csv.hh"
#include "trace/etl.hh"

namespace {

using namespace deskpar;
using namespace deskpar::apps;

RunOptions
fast(unsigned cores = 12)
{
    RunOptions o;
    o.iterations = 1;
    o.duration = sim::sec(6.0);
    o.seedBase = 3;
    o.config.activeCpus = cores;
    return o;
}

TEST(Pipeline, EtlRoundTripPreservesMetrics)
{
    AppRunResult run = runWorkload("handbrake", fast());
    auto direct = analysis::Session(run.lastBundle).app("handbrake");

    std::ostringstream buffer;
    trace::writeEtl(run.lastBundle, buffer);
    const std::string bytes = buffer.str();
    trace::IngestReport report;
    trace::TraceBundle loaded = trace::decodeEtl(
        trace::io::ByteSpan(bytes), trace::ParseOptions{}, report);
    ASSERT_TRUE(report.ok()) << report.summary();
    auto from_etl = analysis::Session(loaded).app("handbrake");

    EXPECT_DOUBLE_EQ(direct.tlp(), from_etl.tlp());
    EXPECT_DOUBLE_EQ(direct.gpuUtilPercent(),
                     from_etl.gpuUtilPercent());
    EXPECT_EQ(direct.frames.frames, from_etl.frames.frames);
}

TEST(Pipeline, CsvRoundTripPreservesMetrics)
{
    // The wpaexporter path: CPU and GPU CSVs parsed back into a
    // bundle (window/CPU count supplied out of band, as WPA does).
    AppRunResult run = runWorkload("winx", fast());
    auto direct = analysis::Session(run.lastBundle).app("winx");

    std::ostringstream cpu_csv, gpu_csv;
    trace::writeCpuUsageCsv(run.lastBundle, cpu_csv);
    trace::writeGpuUtilCsv(run.lastBundle, gpu_csv);

    trace::TraceBundle loaded;
    loaded.startTime = run.lastBundle.startTime;
    loaded.stopTime = run.lastBundle.stopTime;
    loaded.numLogicalCpus = run.lastBundle.numLogicalCpus;
    const std::string cpu = cpu_csv.str(), gpu = gpu_csv.str();
    trace::IngestReport report = trace::decodeCpuUsageCsv(
        trace::io::ByteSpan(cpu), loaded, trace::ParseOptions{});
    ASSERT_TRUE(report.ok()) << report.summary();
    report = trace::decodeGpuUtilCsv(trace::io::ByteSpan(gpu), loaded,
                                     trace::ParseOptions{});
    ASSERT_TRUE(report.ok()) << report.summary();

    auto from_csv = analysis::Session(loaded).app("winx");
    EXPECT_NEAR(direct.tlp(), from_csv.tlp(), 1e-9);
    EXPECT_NEAR(direct.gpuUtilPercent(),
                from_csv.gpuUtilPercent(), 1e-9);
}

TEST(Pipeline, ApplicationVsSystemTlp)
{
    // Application-level filtering is what Section III-B prescribes:
    // with a single app running, application TLP <= system TLP, and
    // both match when the pid set covers everything.
    AppRunResult run = runWorkload("photoshop", fast());
    analysis::Session session(run.lastBundle);
    auto app = session.app("photoshop");
    auto system = session.app(trace::PidSet{});
    EXPECT_LE(app.tlp(), system.tlp() + 1e-9);
}

TEST(Trends, HandBrakeTlpGrowsWithCores)
{
    double t4 = runWorkload("handbrake", fast(4)).tlp();
    double t8 = runWorkload("handbrake", fast(8)).tlp();
    double t12 = runWorkload("handbrake", fast(12)).tlp();
    EXPECT_LT(t4, t8);
    EXPECT_LT(t8, t12);
    EXPECT_LE(t4, 4.0 + 1e-9);
    EXPECT_LE(t8, 8.0 + 1e-9);
}

TEST(Trends, LowTlpAppsFlatUnderCoreScaling)
{
    for (const char *id : {"vlc", "cortana"}) {
        double t4 = runWorkload(id, fast(4)).tlp();
        double t12 = runWorkload(id, fast(12)).tlp();
        EXPECT_NEAR(t4, t12, 0.4) << id;
    }
}

TEST(Trends, TlpNeverExceedsActiveCpus)
{
    for (unsigned cores : {4u, 8u, 12u}) {
        auto result = runWorkload("easyminer", fast(cores));
        EXPECT_LE(result.tlp(), static_cast<double>(cores) + 1e-9);
        EXPECT_GT(result.tlp(), cores * 0.9);
    }
}

TEST(Trends, MaxConcurrencyCappedByMask)
{
    auto result = runWorkload("photoshop", fast(8));
    EXPECT_LE(
        result.iterations[0].metrics.concurrency.maxConcurrency(),
        8u);
}

TEST(Trends, GpuTierRaisesUtilizationForFixedLoad)
{
    RunOptions mid = fast();
    mid.config.gpu = sim::GpuSpec::gtx680();
    double u_mid = runWorkload("vlc", mid).gpuUtil();
    double u_high = runWorkload("vlc", fast()).gpuUtil();
    EXPECT_GT(u_mid, u_high * 2.0);
}

TEST(Trends, SmtSharedTimeOnlyWithSmtMask)
{
    auto smt_on = runWorkload("handbrake", fast(12));
    RunOptions no_smt = fast(6);
    no_smt.config.smtEnabled = false;
    auto smt_off = runWorkload("handbrake", no_smt);
    EXPECT_GT(smt_on.iterations[0].sched.smtSharedTime, 0u);
    EXPECT_EQ(smt_off.iterations[0].sched.smtSharedTime, 0u);
}

} // namespace

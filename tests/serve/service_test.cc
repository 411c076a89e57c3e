/**
 * @file
 * The unified analysis request API (analysis/service.hh).
 *
 * Contract under test: every op renders to a document that is
 * byte-identical between a cold open and a warm resident hit (the
 * property the serve/CLI byte-identity acceptance rests on); request
 * validation fails before the trace is opened where the CLI's did;
 * and the error text of the pre-Service commands is preserved.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <sstream>
#include <string>

#include "analysis/index_cache.hh"
#include "analysis/service.hh"
#include "report/documents.hh"
#include "sim/logging.hh"
#include "trace/etl.hh"
#include "trace/filter.hh"
#include "trace/parse.hh"

namespace {

using namespace deskpar;
using namespace deskpar::analysis;

/** Eight-CPU bundle with cswitches, GPU packets, and frames so every
 *  op has something to report. */
trace::TraceBundle
serviceBundle()
{
    trace::TraceBundle bundle;
    bundle.startTime = 1000;
    bundle.stopTime = 2000000;
    bundle.numLogicalCpus = 8;
    bundle.processNames[0] = "Idle";
    for (trace::Pid pid = 1000; pid < 1006; ++pid)
        bundle.processNames[pid] =
            "app-" + std::to_string(pid - 1000);

    std::uint64_t state = 42;
    auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (unsigned i = 0; i < 4000; ++i) {
        trace::CSwitchEvent cs;
        cs.timestamp = 1000 + 400 * i + next() % 100;
        cs.cpu = static_cast<unsigned>(next() % 8);
        cs.oldPid = i % 2 ? 1000 + trace::Pid(next() % 6) : 0;
        cs.oldTid = cs.oldPid * 10 + 1;
        cs.newPid = i % 2 ? 0 : 1000 + trace::Pid(next() % 6);
        cs.newTid = cs.newPid * 10 + 1;
        cs.readyTime = cs.timestamp - next() % 900;
        bundle.cswitches.push_back(cs);
    }
    for (unsigned i = 0; i < 200; ++i) {
        trace::GpuPacketEvent gp;
        gp.start = 2000 + 800 * i;
        gp.queued = gp.start - 50;
        gp.finish = gp.start + 300;
        gp.pid = 1000 + trace::Pid(i % 6);
        gp.engine = static_cast<trace::GpuEngineId>(
            i % trace::kNumGpuEngines);
        gp.packetId = i;
        gp.queueSlot = 0;
        bundle.gpuPackets.push_back(gp);
    }
    for (unsigned i = 0; i < 60; ++i) {
        trace::FrameEvent fr;
        fr.timestamp = 5000 + 16000 * i;
        fr.pid = 1000;
        fr.frameId = i;
        fr.synthesized = false;
        bundle.frames.push_back(fr);
    }
    return bundle;
}

std::string
writeTrace(const std::string &name)
{
    std::string path = ::testing::TempDir() + "/" + name;
    trace::writeEtl(serviceBundle(), path);
    std::filesystem::remove(indexCachePath(path));
    return path;
}

ServiceTraceRequest
traceRequest(const std::string &path)
{
    ServiceTraceRequest request;
    request.path = path;
    request.appPrefix = "app-";
    return request;
}

TEST(Service, AnalyzeDocumentIsIdenticalColdAndWarm)
{
    std::string path = writeTrace("svc_analyze.etl");
    Service service;

    ServiceAnalyzeResult cold = service.analyze(traceRequest(path));
    EXPECT_FALSE(cold.warm);
    EXPECT_GT(cold.events, 0u);
    EXPECT_FALSE(cold.degraded);

    ServiceAnalyzeResult warm = service.analyze(traceRequest(path));
    EXPECT_TRUE(warm.warm);

    // Documents carry only deterministic fields, so the rendered
    // cold and warm responses must match byte for byte.
    std::ostringstream coldDoc, warmDoc;
    report::writeAnalyzeDocument(coldDoc, cold);
    report::writeAnalyzeDocument(warmDoc, warm);
    EXPECT_EQ(coldDoc.str(), warmDoc.str());
    EXPECT_NE(coldDoc.str().find("\"schema\":1"), std::string::npos);
    EXPECT_NE(coldDoc.str().find("\"command\":\"analyze\""),
              std::string::npos);
}

// Without a prefix, analyze reads concurrency off the system-wide
// columns. That must equal Session::app over every application pid,
// also for a switched-in pid missing from the name table and with
// pid-0 GPU packets and frames, which only the system-wide GPU and
// frame filters keep.
TEST(Service, AnalyzeWithoutAPrefixMatchesSessionApp)
{
    trace::TraceBundle bundle = serviceBundle();
    for (std::size_t i = 0; i < bundle.cswitches.size(); i += 10) {
        trace::CSwitchEvent &cs = bundle.cswitches[i];
        if (cs.newPid != 0) {
            cs.newPid = 2000;
            cs.newTid = 20001;
        }
    }
    bundle.gpuPackets[3].pid = 0;
    bundle.frames[5].pid = 0;
    std::string path = ::testing::TempDir() + "/svc_analyze_all.etl";
    trace::writeEtl(bundle, path);
    std::filesystem::remove(indexCachePath(path));

    ServiceTraceRequest request;
    request.path = path;
    AppMetrics got = Service().analyze(request).metrics;
    AppMetrics want =
        Session(bundle).app(trace::allApplicationPids(bundle));

    EXPECT_EQ(got.concurrency.c, want.concurrency.c);
    EXPECT_EQ(got.concurrency.window, want.concurrency.window);
    EXPECT_EQ(got.tlp(), want.tlp());
    EXPECT_EQ(got.gpu.aggregateRatio, want.gpu.aggregateRatio);
    EXPECT_EQ(got.gpu.busyRatio, want.gpu.busyRatio);
    EXPECT_EQ(got.gpu.packetCount, want.gpu.packetCount);
    EXPECT_EQ(got.frames.frames, want.frames.frames);
    EXPECT_EQ(got.frames.avgFps, want.frames.avgFps);
    // The pid-0 packet and frame really are outside the app set.
    EXPECT_NE(got.gpu.packetCount,
              Session(bundle).gpuUtil(trace::PidSet{}).packetCount);
}

TEST(Service, QueryDocumentIsIdenticalColdAndWarm)
{
    std::string path = writeTrace("svc_query.etl");

    ServiceQueryRequest request;
    request.trace = traceRequest(path);
    request.specs = {"tlp", "gpu"};

    Service service;
    ServiceQueryResult cold = service.query(request);
    EXPECT_EQ(cold.results.size(), 2u);
    ServiceQueryResult warm = service.query(request);
    EXPECT_TRUE(warm.warm);

    std::ostringstream coldDoc, warmDoc;
    report::writeQueryDocument(coldDoc, cold);
    report::writeQueryDocument(warmDoc, warm);
    EXPECT_EQ(coldDoc.str(), warmDoc.str());
}

TEST(Service, BadSpecFailsBeforeTheTraceIsOpened)
{
    Service service;
    ServiceQueryRequest request;
    request.trace =
        traceRequest(::testing::TempDir() + "/svc_never_opened.etl");
    request.specs = {"tlp", "definitely.not.a.metric"};

    EXPECT_THROW(service.query(request), FatalError);
    // Spec validation precedes the open: no miss, no ingest attempt
    // on a path that does not even exist.
    EXPECT_EQ(service.cacheStats().misses, 0u);
    EXPECT_EQ(service.cacheStats().ingests, 0u);
}

TEST(Service, BottlenecksPreservesTheOldBadPrefixError)
{
    std::string path = writeTrace("svc_bott.etl");
    Service service;

    ServiceBottlenecksRequest request;
    request.trace = traceRequest(path);
    request.trace.appPrefix = "nosuch";

    try {
        service.bottlenecks(request);
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        // The CLI prints "deskpar: <what>"; this exact text is the
        // pre-Service bottlenecks error.
        EXPECT_STREQ(err.what(),
                     "no process name matches prefix 'nosuch'");
    }
}

TEST(Service, BottlenecksDocumentIsIdenticalColdAndWarm)
{
    std::string path = writeTrace("svc_bott2.etl");
    Service service;

    ServiceBottlenecksRequest request;
    request.trace = traceRequest(path);
    request.top = 5;

    ServiceBottlenecksResult cold = service.bottlenecks(request);
    ServiceBottlenecksResult warm = service.bottlenecks(request);
    EXPECT_TRUE(warm.warm);

    std::ostringstream coldDoc, warmDoc;
    report::writeBottlenecksDocument(coldDoc, cold);
    report::writeBottlenecksDocument(warmDoc, warm);
    EXPECT_EQ(coldDoc.str(), warmDoc.str());
}

TEST(Service, SeriesRejectsAZeroWindow)
{
    std::string path = writeTrace("svc_series0.etl");
    Service service;

    ServiceSeriesRequest request;
    request.trace = traceRequest(path);
    request.window = 0;
    EXPECT_THROW(service.series(request), FatalError);
}

TEST(Service, SeriesAndFramesRenderColdEqualsWarm)
{
    std::string path = writeTrace("svc_series.etl");
    Service service;

    ServiceSeriesRequest series;
    series.trace = traceRequest(path);
    series.kind = ServiceSeriesKind::Concurrency;
    series.window = 100000; // 100us windows over a 2ms trace

    ServiceSeriesResult coldSeries = service.series(series);
    ServiceSeriesResult warmSeries = service.series(series);
    std::ostringstream coldDoc, warmDoc;
    report::writeSeriesDocument(coldDoc, coldSeries);
    report::writeSeriesDocument(warmDoc, warmSeries);
    EXPECT_EQ(coldDoc.str(), warmDoc.str());

    ServiceFramesRequest frames;
    frames.trace = traceRequest(path);
    ServiceFramesResult coldFrames = service.frames(frames);
    ServiceFramesResult warmFrames = service.frames(frames);
    std::ostringstream coldFramesDoc, warmFramesDoc;
    report::writeFramesDocument(coldFramesDoc, coldFrames);
    report::writeFramesDocument(warmFramesDoc, warmFrames);
    EXPECT_EQ(coldFramesDoc.str(), warmFramesDoc.str());
    EXPECT_NE(coldFramesDoc.str().find("\"command\":\"frames\""),
              std::string::npos);
}

TEST(Service, SeriesKindNamesRoundTrip)
{
    EXPECT_STREQ(serviceSeriesKindName(ServiceSeriesKind::Tlp),
                 "tlp");
    EXPECT_STREQ(
        serviceSeriesKindName(ServiceSeriesKind::Concurrency),
        "concurrency");
    EXPECT_STREQ(serviceSeriesKindName(ServiceSeriesKind::GpuUtil),
                 "gpu_util");
    EXPECT_STREQ(serviceSeriesKindName(ServiceSeriesKind::FrameRate),
                 "frame_rate");
}

TEST(Service, InvalidateDropsTheResidentEntry)
{
    std::string path = writeTrace("svc_inval.etl");
    Service service;

    service.analyze(traceRequest(path));
    service.invalidate(path);
    ServiceAnalyzeResult again = service.analyze(traceRequest(path));
    EXPECT_FALSE(again.warm);
    EXPECT_EQ(service.cacheStats().ingests, 2u);
}

} // namespace

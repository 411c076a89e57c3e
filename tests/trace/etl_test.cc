/**
 * @file
 * Round-trip and robustness tests for the binary .etl container.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>

#include "trace/container.hh"
#include "trace/etl.hh"
#include "trace/etlc.hh"
#include "trace/ingest.hh"

namespace {

using namespace deskpar::trace;

/** Serialize @p bundle to .etl bytes in memory. */
std::string
etlBytes(const TraceBundle &bundle)
{
    std::ostringstream out;
    writeEtl(bundle, out);
    return out.str();
}

/** Decode @p bytes strictly; @p report says whether it was clean. */
TraceBundle
decode(const std::string &bytes, IngestReport &report)
{
    return decodeEtl(io::ByteSpan(bytes), ParseOptions{}, report);
}

TraceBundle
sampleBundle()
{
    TraceBundle bundle;
    bundle.startTime = 100;
    bundle.stopTime = 5000;
    bundle.numLogicalCpus = 12;
    bundle.processNames[0] = "Idle";
    bundle.processNames[1000] = "handbrake";
    bundle.processNames[1001] = "chrome renderer, no. 1";

    CSwitchEvent cs;
    cs.timestamp = 150;
    cs.cpu = 3;
    cs.oldPid = 0;
    cs.oldTid = 0;
    cs.newPid = 1000;
    cs.newTid = 10000001;
    cs.readyTime = 149;
    bundle.cswitches.push_back(cs);
    cs.timestamp = 450;
    cs.oldPid = 1000;
    cs.oldTid = 10000001;
    cs.newPid = 0;
    cs.newTid = 0;
    cs.readyTime = 0;
    bundle.cswitches.push_back(cs);

    GpuPacketEvent gp;
    gp.start = 200;
    gp.finish = 320;
    gp.pid = 1000;
    gp.engine = GpuEngineId::VideoEncode;
    gp.packetId = 1;
    gp.queueSlot = 0;
    bundle.gpuPackets.push_back(gp);
    gp.start = 250;
    gp.finish = 400;
    gp.engine = GpuEngineId::Compute;
    gp.packetId = 2;
    gp.queueSlot = 1;
    bundle.gpuPackets.push_back(gp);

    FrameEvent fr;
    fr.timestamp = 300;
    fr.pid = 1000;
    fr.frameId = 7;
    fr.synthesized = true;
    bundle.frames.push_back(fr);

    ThreadLifeEvent tl;
    tl.timestamp = 120;
    tl.pid = 1000;
    tl.tid = 10000001;
    tl.created = true;
    tl.name = "encoder-worker";
    bundle.threadEvents.push_back(tl);

    ProcessLifeEvent pl;
    pl.timestamp = 110;
    pl.pid = 1000;
    pl.created = true;
    pl.name = "handbrake";
    bundle.processEvents.push_back(pl);

    MarkerEvent mk;
    mk.timestamp = 130;
    mk.label = "phase: filter, pass 1";
    bundle.markers.push_back(mk);
    return bundle;
}

TEST(Etl, VarintRoundTrip)
{
    std::string buf;
    std::vector<std::uint64_t> values = {0, 1, 127, 128, 300, 1u << 20,
                                         (1ull << 62) + 12345};
    for (auto v : values)
        putVarint(buf, v);
    std::size_t pos = 0;
    for (auto v : values) {
        std::uint64_t got = 0;
        ParseError err;
        ASSERT_TRUE(getBounded(buf, pos, buf.size(), got, err)) << err.reason;
        EXPECT_EQ(got, v);
    }
    EXPECT_EQ(pos, buf.size());
}

TEST(Etl, VarintTruncatedFatal)
{
    std::string buf;
    putVarint(buf, 1u << 20);
    buf.pop_back();
    std::size_t pos = 0;
    std::uint64_t value = 0;
    ParseError err;
    EXPECT_FALSE(getBounded(buf, pos, buf.size(), value, err));
    EXPECT_EQ(err.reason, "truncated varint");
}

TEST(Etl, StreamRoundTripPreservesEverything)
{
    TraceBundle in = sampleBundle();
    IngestReport report;
    TraceBundle out = decode(etlBytes(in), report);
    ASSERT_TRUE(report.ok()) << report.summary();

    EXPECT_EQ(out.startTime, in.startTime);
    EXPECT_EQ(out.stopTime, in.stopTime);
    EXPECT_EQ(out.numLogicalCpus, in.numLogicalCpus);
    EXPECT_EQ(out.processNames, in.processNames);

    ASSERT_EQ(out.cswitches.size(), in.cswitches.size());
    for (std::size_t i = 0; i < in.cswitches.size(); ++i) {
        EXPECT_EQ(out.cswitches[i].timestamp,
                  in.cswitches[i].timestamp);
        EXPECT_EQ(out.cswitches[i].cpu, in.cswitches[i].cpu);
        EXPECT_EQ(out.cswitches[i].oldPid, in.cswitches[i].oldPid);
        EXPECT_EQ(out.cswitches[i].oldTid, in.cswitches[i].oldTid);
        EXPECT_EQ(out.cswitches[i].newPid, in.cswitches[i].newPid);
        EXPECT_EQ(out.cswitches[i].newTid, in.cswitches[i].newTid);
        EXPECT_EQ(out.cswitches[i].readyTime,
                  in.cswitches[i].readyTime);
    }

    ASSERT_EQ(out.gpuPackets.size(), in.gpuPackets.size());
    for (std::size_t i = 0; i < in.gpuPackets.size(); ++i) {
        EXPECT_EQ(out.gpuPackets[i].start, in.gpuPackets[i].start);
        EXPECT_EQ(out.gpuPackets[i].finish, in.gpuPackets[i].finish);
        EXPECT_EQ(out.gpuPackets[i].pid, in.gpuPackets[i].pid);
        EXPECT_EQ(out.gpuPackets[i].engine, in.gpuPackets[i].engine);
        EXPECT_EQ(out.gpuPackets[i].packetId,
                  in.gpuPackets[i].packetId);
        EXPECT_EQ(out.gpuPackets[i].queueSlot,
                  in.gpuPackets[i].queueSlot);
    }

    ASSERT_EQ(out.frames.size(), 1u);
    EXPECT_EQ(out.frames[0].frameId, 7u);
    EXPECT_TRUE(out.frames[0].synthesized);

    ASSERT_EQ(out.threadEvents.size(), 1u);
    EXPECT_EQ(out.threadEvents[0].name, "encoder-worker");

    ASSERT_EQ(out.processEvents.size(), 1u);
    EXPECT_EQ(out.processEvents[0].name, "handbrake");

    ASSERT_EQ(out.markers.size(), 1u);
    EXPECT_EQ(out.markers[0].label, "phase: filter, pass 1");
}

TEST(Etl, FileRoundTrip)
{
    TraceBundle in = sampleBundle();
    std::string path = ::testing::TempDir() + "/deskpar_etl_test.etl";
    writeEtl(in, path);
    DecodedTrace decoded = decodeTraceFile(path, ParseOptions{}, "test");
    ASSERT_TRUE(decoded.report.ok()) << decoded.report.summary();
    EXPECT_EQ(decoded.bundle.cswitches.size(), in.cswitches.size());
    EXPECT_EQ(decoded.bundle.processNames, in.processNames);
}

/** Whole contents of @p path. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return std::string(std::istreambuf_iterator<char>(in), {});
}

TEST(Etl, RefusedPathWriteLeavesNoFile)
{
    // An inverted window fails validateEncoding(). Both writers encode
    // before they create the file: a new path never appears, an
    // existing file keeps its bytes, and the refusal names the path.
    TraceBundle bad;
    bad.startTime = 100;
    bad.stopTime = 50;
    bad.numLogicalCpus = 4;
    using Writer = void (*)(const TraceBundle &, const std::string &);
    for (auto [name, write] :
         {std::pair<const char *, Writer>{"etl", writeEtl},
          std::pair<const char *, Writer>{"etlc", writeEtlc}}) {
        SCOPED_TRACE(name);
        std::string dir =
            ::testing::TempDir() + "/deskpar_refused_" + name;
        std::filesystem::remove_all(dir);
        std::filesystem::create_directories(dir);
        std::string fresh = dir + "/fresh." + name;
        std::string kept = dir + "/kept." + name;
        std::ofstream(kept, std::ios::binary) << "previous bytes";

        for (const std::string &path : {fresh, kept}) {
            try {
                write(bad, path);
                ADD_FAILURE() << "expected a refusal for " << path;
            } catch (const TraceParseError &e) {
                EXPECT_EQ(e.error().str(),
                          path + ": [header] stopTime 50 precedes "
                                 "startTime 100");
            }
        }
        EXPECT_FALSE(std::filesystem::exists(fresh));
        EXPECT_EQ(slurp(kept), "previous bytes");
        std::filesystem::remove_all(dir);
    }
}

TEST(Etl, EmptyBundleRoundTrip)
{
    TraceBundle in;
    in.startTime = 0;
    in.stopTime = 1;
    in.numLogicalCpus = 4;
    IngestReport report;
    TraceBundle out = decode(etlBytes(in), report);
    ASSERT_TRUE(report.ok()) << report.summary();
    EXPECT_EQ(out.totalEvents(), 0u);
    EXPECT_EQ(out.numLogicalCpus, 4u);
}

TEST(Etl, BadMagicFatal)
{
    IngestReport report;
    decode("NOTANETL_FILE_AT_ALL", report);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.errors.front().reason, "bad magic");
}

TEST(Etl, TruncatedBodyFatal)
{
    std::string data = etlBytes(sampleBundle());
    IngestReport report;
    decode(data.substr(0, data.size() / 2), report);
    EXPECT_FALSE(report.ok());
}

} // namespace

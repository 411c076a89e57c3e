/**
 * @file
 * Round-trip and robustness tests for the binary .etl container.
 */

#include <gtest/gtest.h>

#include <sstream>

#include "sim/logging.hh"
#include "trace/etl.hh"
#include "trace/ingest.hh"

namespace {

using namespace deskpar::trace;

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
    for (auto v : values)
        EXPECT_EQ(getVarint(buf, pos), v);
    EXPECT_EQ(pos, buf.size());
}

TEST(Etl, VarintTruncatedFatal)
{
    std::string buf;
    putVarint(buf, 1u << 20);
    buf.pop_back();
    std::size_t pos = 0;
    EXPECT_THROW(getVarint(buf, pos), deskpar::FatalError);
}

TEST(Etl, StreamRoundTripPreservesEverything)
{
    TraceBundle in = sampleBundle();
    std::stringstream ss;
    writeEtl(in, ss);
    TraceBundle out = readEtl(ss);

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

TEST(Etl, EmptyBundleRoundTrip)
{
    TraceBundle in;
    in.startTime = 0;
    in.stopTime = 1;
    in.numLogicalCpus = 4;
    std::stringstream ss;
    writeEtl(in, ss);
    TraceBundle out = readEtl(ss);
    EXPECT_EQ(out.totalEvents(), 0u);
    EXPECT_EQ(out.numLogicalCpus, 4u);
}

TEST(Etl, BadMagicFatal)
{
    std::stringstream ss;
    ss << "NOTANETL_FILE_AT_ALL";
    EXPECT_THROW(readEtl(ss), deskpar::FatalError);
}

TEST(Etl, TruncatedBodyFatal)
{
    TraceBundle in = sampleBundle();
    std::stringstream ss;
    writeEtl(in, ss);
    std::string data = ss.str();
    std::stringstream truncated(
        data.substr(0, data.size() / 2));
    EXPECT_THROW(readEtl(truncated), deskpar::FatalError);
}

} // namespace

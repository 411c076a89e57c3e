/**
 * @file
 * Tests for the wpaexporter-style CSV export/import.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <string_view>
#include <vector>

#include "trace/csv.hh"

namespace {

using namespace deskpar::trace;

TraceBundle
sampleBundle()
{
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = 1000;
    bundle.numLogicalCpus = 12;
    bundle.processNames[0] = "Idle";
    bundle.processNames[7] = "vlc, media player"; // comma in name
    bundle.processNames[9] = "chrome";

    CSwitchEvent cs;
    cs.timestamp = 10;
    cs.cpu = 2;
    cs.oldPid = 0;
    cs.oldTid = 0;
    cs.newPid = 7;
    cs.newTid = 71;
    cs.readyTime = 9;
    bundle.cswitches.push_back(cs);
    cs.timestamp = 60;
    cs.oldPid = 7;
    cs.oldTid = 71;
    cs.newPid = 9;
    cs.newTid = 91;
    cs.readyTime = 55;
    bundle.cswitches.push_back(cs);

    GpuPacketEvent gp;
    gp.start = 20;
    gp.finish = 45;
    gp.pid = 7;
    gp.engine = GpuEngineId::VideoDecode;
    gp.packetId = 1;
    gp.queueSlot = 0;
    bundle.gpuPackets.push_back(gp);
    return bundle;
}

/** Split @p line with the decoders' field splitter (it must succeed). */
std::vector<std::string>
split(std::string_view line)
{
    std::vector<std::string_view> fields;
    std::string scratch;
    ParseError err;
    EXPECT_TRUE(splitCsvFieldsView(line, fields, scratch, err))
        << err.reason;
    return {fields.begin(), fields.end()};
}

/** Decode @p text with @p decoder at one thread, strict. */
IngestReport
decode(IngestReport (*decoder)(io::ByteSpan, TraceBundle &,
                               const ParseOptions &),
       const std::string &text, TraceBundle &out)
{
    ParseOptions options;
    options.threads = 1;
    return decoder(io::ByteSpan(text), out, options);
}

TEST(Csv, SplitHandlesQuotesAndCommas)
{
    auto fields = split("a,\"b,c\",\"d\"\"e\",f");
    ASSERT_EQ(fields.size(), 4u);
    EXPECT_EQ(fields[0], "a");
    EXPECT_EQ(fields[1], "b,c");
    EXPECT_EQ(fields[2], "d\"e");
    EXPECT_EQ(fields[3], "f");
}

TEST(Csv, SplitPlainLine)
{
    auto fields = split("1,2,3");
    ASSERT_EQ(fields.size(), 3u);
    EXPECT_EQ(fields[2], "3");
}

TEST(Csv, CpuUsageRoundTrip)
{
    TraceBundle in = sampleBundle();
    std::ostringstream text;
    writeCpuUsageCsv(in, text);

    TraceBundle out;
    IngestReport report = decode(decodeCpuUsageCsv, text.str(), out);
    EXPECT_TRUE(report.ok()) << report.summary();
    ASSERT_EQ(out.cswitches.size(), 2u);
    EXPECT_EQ(out.cswitches[0].timestamp, 10u);
    EXPECT_EQ(out.cswitches[0].cpu, 2u);
    EXPECT_EQ(out.cswitches[0].newPid, 7u);
    EXPECT_EQ(out.cswitches[0].newTid, 71u);
    EXPECT_EQ(out.cswitches[0].readyTime, 9u);
    EXPECT_EQ(out.cswitches[1].oldPid, 7u);
    // Process names (with the embedded comma) survive the trip.
    EXPECT_EQ(out.processNames.at(7), "vlc, media player");
    EXPECT_EQ(out.processNames.at(0), "Idle");
}

TEST(Csv, GpuUtilRoundTrip)
{
    TraceBundle in = sampleBundle();
    std::ostringstream text;
    writeGpuUtilCsv(in, text);

    TraceBundle out;
    IngestReport report = decode(decodeGpuUtilCsv, text.str(), out);
    EXPECT_TRUE(report.ok()) << report.summary();
    ASSERT_EQ(out.gpuPackets.size(), 1u);
    EXPECT_EQ(out.gpuPackets[0].start, 20u);
    EXPECT_EQ(out.gpuPackets[0].finish, 45u);
    EXPECT_EQ(out.gpuPackets[0].pid, 7u);
    EXPECT_EQ(out.gpuPackets[0].engine, GpuEngineId::VideoDecode);
}

TEST(Csv, HeaderValidation)
{
    TraceBundle out;
    IngestReport cpu =
        decode(decodeCpuUsageCsv, "wrong,header\n1,2\n", out);
    ASSERT_FALSE(cpu.ok());
    EXPECT_EQ(cpu.errors.front().section, "header");
    IngestReport gpu = decode(decodeGpuUtilCsv, "nope\n", out);
    ASSERT_FALSE(gpu.ok());
    EXPECT_EQ(gpu.errors.front().section, "header");
    EXPECT_EQ(out.totalEvents(), 0u);
}

TEST(Csv, BadFieldCountFatal)
{
    TraceBundle in = sampleBundle();
    std::ostringstream text;
    writeCpuUsageCsv(in, text);
    std::string data = text.str() + "only,three,fields\n";
    TraceBundle out;
    IngestReport report = decode(decodeCpuUsageCsv, data, out);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.errors.front().line, 4u);
    EXPECT_NE(report.errors.front().reason.find("bad field count"),
              std::string::npos);
}

TEST(Csv, UnknownEngineFatal)
{
    std::string text =
        "Process,PID,Engine,Queue Slot,Queued (ns),"
        "Start Execution (ns),Finished (ns)\n"
        "app (5),5,Warp,0,1,2,3\n";
    TraceBundle out;
    IngestReport report = decode(decodeGpuUtilCsv, text, out);
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.errors.front().field, "Engine");
}

TEST(Csv, EventReserveIsClampedByTheLineCount)
{
    // Rows with long process names blow up the bytes-per-row
    // estimate: ten ~1.3 KiB rows are still ten events, but the
    // divisor alone used to reserve ~200 slots and hold the excess
    // through the whole ingest. The newline pre-scan is a hard upper
    // bound on the row count, so capacity must stay near the true
    // size in both the serial and the chunked parallel paths.
    std::string longName(600, 'n');
    std::ostringstream text;
    text << "New Process,New PID,New TID,CPU,Ready Time (ns),"
            "Switch-In Time (ns),Old Process,Old PID,Old TID\n";
    for (int i = 0; i < 10; ++i)
        text << longName << " (1000),1000,11,2," << 100 + i << ","
             << 150 + i << "," << longName << " (1001),1001,12\n";
    std::string data = text.str();

    for (unsigned threads : {1u, 4u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        TraceBundle out;
        ParseOptions options;
        options.threads = threads;
        IngestReport report = decodeCpuUsageCsv(
            io::ByteSpan(data), out, options);
        EXPECT_TRUE(report.ok()) << report.summary();
        ASSERT_EQ(out.cswitches.size(), 10u);
        EXPECT_LE(out.cswitches.capacity(), 32u)
            << "pre-size estimate ignored the line count";
    }
}

/** parseCsvU64 as written before its 19-digit fast path. */
ParseResult<std::uint64_t>
referenceU64(std::string_view field)
{
    const std::uint64_t max = ~std::uint64_t(0);
    if (field.empty()) {
        ParseError e;
        e.reason = "empty numeric field";
        return e;
    }
    std::uint64_t value = 0;
    for (char c : field) {
        if (c < '0' || c > '9') {
            ParseError e;
            e.reason = "non-numeric character '" + std::string(1, c) +
                       "' in field '" + std::string(field) + "'";
            return e;
        }
        auto digit = static_cast<std::uint64_t>(c - '0');
        if (value > (max - digit) / 10) {
            ParseError e;
            e.reason = "field '" + std::string(field) +
                       "' overflows 64 bits";
            return e;
        }
        value = value * 10 + digit;
    }
    return value;
}

void
expectSameAsReference(const std::string &field)
{
    SCOPED_TRACE("field '" + field + "'");
    ParseResult<std::uint64_t> got = parseCsvU64(field);
    ParseResult<std::uint64_t> want = referenceU64(field);
    ASSERT_EQ(got.ok(), want.ok());
    if (got.ok())
        EXPECT_EQ(*got, *want);
    else
        EXPECT_EQ(got.error().reason, want.error().reason);
}

TEST(Csv, NumberParseMatchesTheCheckedLoopAtEveryLength)
{
    for (const char *field :
         {"", "0", "7", "9999999999999999999", "18446744073709551615",
          "18446744073709551616", "99999999999999999999",
          "000000000000000000000000001", "99999999999999999999x",
          "1844674407370955161x", "12a", "-1", " 1"})
        expectSameAsReference(field);
    // Every length from 1 to 24, mostly digits with the odd junk
    // byte, so both sides of the 19-digit boundary are covered.
    std::uint64_t state = 0x2545f4914f6cdd1dull;
    auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (std::size_t len = 1; len <= 24; ++len) {
        for (int k = 0; k < 200; ++k) {
            std::string field;
            for (std::size_t i = 0; i < len; ++i) {
                std::uint64_t r = next() % 40;
                field += r < 38 ? char('0' + r % 10) : (r == 38 ? 'x' : ' ');
            }
            if (k % 4 == 0)
                field[0] = '1';
            expectSameAsReference(field);
        }
    }
}

} // namespace

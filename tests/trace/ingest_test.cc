/**
 * @file
 * The one trace-open path, trace::decodeTraceFile (trace/ingest.hh).
 *
 * Contract under test: the format sniff's precedence — a `.csv` name
 * beats the .etlc magic, the .etlc magic selects .etlc whatever the
 * name, and everything else reaches the .etl v3 reader and its
 * structured magic errors — plus the IngestStats accounting and the
 * `who` label of open failures.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>

#include "sim/logging.hh"
#include "trace/csv.hh"
#include "trace/etl.hh"
#include "trace/etlc.hh"
#include "trace/ingest.hh"
#include "trace/session.hh"

namespace {

using namespace deskpar;
using namespace deskpar::trace;

TraceBundle
smallBundle()
{
    TraceBundle bundle;
    bundle.startTime = 1000;
    bundle.stopTime = 50000;
    bundle.numLogicalCpus = 4;
    bundle.processNames[0] = "Idle";
    bundle.processNames[100] = "app";
    for (unsigned i = 0; i < 200; ++i) {
        CSwitchEvent cs;
        cs.timestamp = 1000 + 200 * i;
        cs.cpu = i % 4;
        cs.oldPid = i % 2 ? 100 : 0;
        cs.oldTid = cs.oldPid ? 1001 : 0;
        cs.newPid = i % 2 ? 0 : 100;
        cs.newTid = cs.newPid ? 1001 : 0;
        cs.readyTime = cs.timestamp - i % 7;
        bundle.cswitches.push_back(cs);
    }
    return bundle;
}

std::string
etlcBytes()
{
    std::ostringstream out;
    writeEtlc(smallBundle(), out);
    return out.str();
}

std::string
csvText()
{
    std::ostringstream out;
    writeCpuUsageCsv(smallBundle(), out);
    return out.str();
}

/** Write @p bytes under TempDir as @p name; returns the path. */
std::string
writeFile(const std::string &name, const std::string &bytes)
{
    std::string path = ::testing::TempDir() + "/" + name;
    std::ofstream(path, std::ios::binary) << bytes;
    return path;
}

TEST(TraceOpen, CsvSuffixWinsOverEtlcMagic)
{
    std::string bytes = etlcBytes();
    std::string path = writeFile("deskpar_sniff_magic.csv", bytes);
    DecodedTrace decoded = decodeTraceFile(path, ParseOptions{}, "t");

    // Exactly what the CSV reader makes of those bytes: a rejection,
    // not an .etlc decode.
    ParseOptions named;
    named.source = path;
    TraceBundle csvBundle;
    IngestReport csv = decodeCpuUsageCsv(bytes, csvBundle, named);
    ASSERT_FALSE(csv.ok());
    ASSERT_FALSE(decoded.report.ok());
    EXPECT_EQ(decoded.report.summary(), csv.summary());
    EXPECT_EQ(decoded.report.errors.front().str(),
              csv.errors.front().str());
    EXPECT_TRUE(decoded.bundle.cswitches.empty());
}

TEST(TraceOpen, EtlcMagicWithoutSuffixSelectsEtlc)
{
    for (const char *name :
         {"deskpar_sniff_packed.etl", "deskpar_sniff_packed"}) {
        SCOPED_TRACE(name);
        std::string path = writeFile(name, etlcBytes());
        DecodedTrace decoded =
            decodeTraceFile(path, ParseOptions{}, "t");
        ASSERT_TRUE(decoded.report.ok()) << decoded.report.summary();
        EXPECT_EQ(decoded.report.source, path);
        EXPECT_EQ(decoded.bundle.cswitches.size(),
                  smallBundle().cswitches.size());
    }
}

TEST(TraceOpen, CsvNameReadsCsvText)
{
    std::string path = writeFile("deskpar_sniff_text.csv", csvText());
    DecodedTrace decoded = decodeTraceFile(path, ParseOptions{}, "t");
    ASSERT_TRUE(decoded.report.ok()) << decoded.report.summary();
    EXPECT_EQ(decoded.bundle.cswitches.size(),
              smallBundle().cswitches.size());
}

TEST(TraceOpen, AnythingElseReachesTheV3Reader)
{
    // CSV text without the (case-sensitive) .csv suffix, and a file
    // too short to hold a magic, both land on the .etl v3 reader.
    struct Case
    {
        const char *name;
        std::string bytes;
        const char *reason;
    };
    for (const Case &c :
         {Case{"deskpar_sniff_text.CSV", csvText(), "bad magic"},
          Case{"deskpar_sniff_short.etl", "DPE", "truncated magic"}}) {
        SCOPED_TRACE(c.name);
        std::string path = writeFile(c.name, c.bytes);
        DecodedTrace decoded =
            decodeTraceFile(path, ParseOptions{}, "t");
        ASSERT_EQ(decoded.report.errors.size(), 1u);
        const ParseError &err = decoded.report.errors.front();
        EXPECT_EQ(err.source, path);
        EXPECT_EQ(err.section, "header");
        EXPECT_EQ(err.offset, 0u);
        EXPECT_EQ(err.reason, c.reason);
    }
}

TEST(TraceOpen, V3TraceDecodesAndReportsItsSize)
{
    std::ostringstream out;
    writeEtl(smallBundle(), out);
    std::string path = writeFile("deskpar_sniff_v3.etl", out.str());
    ParseOptions options;
    options.source = "label";
    DecodedTrace decoded = decodeTraceFile(path, options, "t");
    ASSERT_TRUE(decoded.report.ok()) << decoded.report.summary();
    EXPECT_EQ(decoded.report.source, "label");
    EXPECT_EQ(decoded.bundle.cswitches.size(),
              smallBundle().cswitches.size());
    EXPECT_EQ(decoded.stats.bytes, out.str().size());
    EXPECT_GE(decoded.stats.seconds, 0.0);
}

TEST(TraceOpen, OpenFailureNamesTheCaller)
{
    try {
        decodeTraceFile("/nonexistent/deskpar_sniff.etl",
                        ParseOptions{}, "replay");
        FAIL() << "expected FatalError";
    } catch (const FatalError &err) {
        EXPECT_EQ(std::string(err.what()).rfind("fatal: replay: ", 0),
                  0u)
            << err.what();
    }
}

} // namespace

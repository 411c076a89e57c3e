/**
 * @file
 * The one trace-open path, trace::decodeTraceFile (trace/ingest.hh).
 *
 * Contract under test: the format sniff's precedence — a `.csv` name
 * beats the .etlc magic, the .etlc magic selects .etlc whatever the
 * name, and everything else reaches the .etl v3 reader and its
 * structured magic errors — plus the IngestStats accounting and the
 * `who` label of open failures. Also the canonical bundle every
 * decoder leaves (trace::canonicalize): a disordered CSV decodes to
 * its sorted form with a settled header, and the CPU count is bounded
 * by kMaxLogicalCpus at every format's boundary.
 */

#include <gtest/gtest.h>

#include <fstream>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "trace/container.hh"
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

/** A bundle whose header claims @p cpus CPUs. */
TraceBundle
claiming(std::uint32_t cpus)
{
    TraceBundle bundle = smallBundle();
    bundle.numLogicalCpus = cpus;
    return bundle;
}

/** Decode @p bytes as .etl (@p etlc false) or .etlc under @p mode. */
TraceBundle
decodeBinary(const std::string &bytes, bool etlc, ParseMode mode,
             IngestReport &report)
{
    ParseOptions options;
    options.mode = mode;
    options.source = "claim";
    return etlc ? decodeEtlc(io::ByteSpan(bytes), options, report)
                : decodeEtl(io::ByteSpan(bytes), options, report);
}

TEST(TraceOpen, HeaderCpuCountAboveTheBoundFailsTheFile)
{
    for (bool etlc : {false, true}) {
        std::ostringstream huge, top;
        if (etlc) {
            writeEtlc(claiming(20'000'000), huge);
            writeEtlc(claiming(kMaxLogicalCpus), top);
        } else {
            writeEtl(claiming(20'000'000), huge);
            writeEtl(claiming(kMaxLogicalCpus), top);
        }
        for (ParseMode mode : {ParseMode::Strict, ParseMode::Lenient}) {
            SCOPED_TRACE(std::string(etlc ? ".etlc" : ".etl") +
                         (mode == ParseMode::Strict ? " strict"
                                                    : " lenient"));
            IngestReport report;
            TraceBundle bundle =
                decodeBinary(huge.str(), etlc, mode, report);
            ASSERT_FALSE(report.ok());
            ASSERT_EQ(report.errors.size(), 1u);
            EXPECT_EQ(report.errors[0].section, "header");
            EXPECT_EQ(report.errors[0].field, "numLogicalCpus");
            EXPECT_EQ(report.errors[0].reason,
                      "CPU count 20000000 exceeds 1024");
            // Nothing past the header was decoded or sized.
            EXPECT_EQ(bundle.numLogicalCpus, 0u);
            EXPECT_TRUE(bundle.cswitches.empty());

            bundle = decodeBinary(top.str(), etlc, mode, report);
            EXPECT_TRUE(report.ok()) << report.summary();
            EXPECT_EQ(bundle.numLogicalCpus, kMaxLogicalCpus);
        }
    }
}

TEST(TraceOpen, SkeletonDefectsDiagnoseAlikeInBothContainers)
{
    // .etl and .etlc share one skeleton: each defect of the magic, the
    // header or the section framing, built by hand around either
    // container's own magic and version, yields the same diagnostic
    // in both formats and both modes. Only the wanted version differs.
    std::ostringstream etl, etlc;
    writeEtl(TraceBundle{}, etl);
    writeEtlc(TraceBundle{}, etlc);
    struct Container
    {
        bool etlc;
        std::string magic;
        std::uint32_t version;
    };
    for (const Container &c :
         {Container{false, etl.str().substr(0, 8), kEtlVersion},
          Container{true, etlc.str().substr(0, 8), kEtlcVersion}}) {
        auto header = [&](std::uint64_t version, std::uint64_t cpus) {
            std::string bytes = c.magic;
            putVarint(bytes, version);
            putVarint(bytes, 0);   // startTime
            putVarint(bytes, 100); // stopTime
            putVarint(bytes, cpus);
            return bytes;
        };
        const std::string good = header(c.version, 4); // 12 bytes
        std::string badMagic = good;
        badMagic[0] ^= 0x40;
        std::string unknown = good + "\x63\x03" "abc";
        unknown.push_back('\xff');
        std::string tooManyCpus = header(c.version, kMaxLogicalCpus + 1);
        tooManyCpus.push_back('\xff');
        const std::string want = std::to_string(c.version);
        const std::string next = std::to_string(c.version + 1);

        struct Case
        {
            const char *what;
            std::string bytes;
            const char *section;
            const char *field;
            std::uint64_t offset;
            std::string reason;
            /** Whether lenient mode marks the report salvaged. */
            bool salvages;
        };
        const Case cases[] = {
            {"truncated magic", c.magic.substr(0, 5), "header", "", 0,
             "truncated magic", false},
            {"bad magic", badMagic, "header", "", 0, "bad magic", false},
            {"wrong version", header(c.version + 1, 4), "header", "", 8,
             "unsupported version " + next + " (want " + want + ")",
             false},
            {"too many CPUs", tooManyCpus, "header", "numLogicalCpus",
             11, "CPU count 1025 exceeds 1024", false},
            {"missing End", good, "trailer", "", 12,
             "missing end section", true},
            {"unreadable frame length", good + "\x02\x80", "frame", "",
             14, "truncated varint", true},
            {"section past the input", good + "\x02\x64" "abc",
             "CSwitch", "", 14,
             "section length 100 exceeds remaining input", true},
            {"unknown tag", unknown, "Unknown", "", 12,
             "unknown section tag 99", false},
        };
        for (const Case &k : cases) {
            for (ParseMode mode : {ParseMode::Strict, ParseMode::Lenient}) {
                SCOPED_TRACE(std::string(c.etlc ? ".etlc " : ".etl ") +
                             k.what +
                             (mode == ParseMode::Strict ? " strict"
                                                        : " lenient"));
                IngestReport report;
                decodeBinary(k.bytes, c.etlc, mode, report);
                EXPECT_FALSE(report.ok());
                ASSERT_EQ(report.errors.size(), 1u);
                const ParseError &err = report.errors[0];
                EXPECT_EQ(err.source, "claim");
                EXPECT_EQ(err.section, k.section);
                EXPECT_EQ(err.field, k.field);
                EXPECT_EQ(err.offset, k.offset);
                EXPECT_EQ(err.reason, k.reason);
                EXPECT_EQ(report.salvaged,
                          k.salvages && mode == ParseMode::Lenient);
            }
        }
    }
}

TEST(TraceOpen, CsvCpuIdAtTheBoundIsARowError)
{
    TraceBundle bundle = smallBundle();
    bundle.cswitches[5].cpu = kMaxLogicalCpus;
    bundle.cswitches[6].cpu = kMaxLogicalCpus - 1;
    std::ostringstream out;
    writeCpuUsageCsv(bundle, out);
    const std::string text = out.str();

    TraceBundle strict;
    IngestReport report =
        decodeCpuUsageCsv(io::ByteSpan(text), strict, ParseOptions{});
    ASSERT_FALSE(report.ok());
    EXPECT_EQ(report.errors[0].line, 7u); // header + rows 0..5
    EXPECT_EQ(report.errors[0].field, "CPU");

    ParseOptions lenient;
    lenient.mode = ParseMode::Lenient;
    TraceBundle kept;
    report = decodeCpuUsageCsv(io::ByteSpan(text), kept, lenient);
    EXPECT_EQ(report.errorCount, 1u);
    EXPECT_EQ(kept.cswitches.size(), bundle.cswitches.size() - 1);
    EXPECT_EQ(kept.numLogicalCpus, kMaxLogicalCpus);
}

TEST(TraceOpen, LineSwappedCsvDecodesAsTheSortedCsv)
{
    const std::string sorted = csvText();
    // Swap body lines pairwise: every other row is out of order.
    std::vector<std::string> lines;
    std::istringstream in(sorted);
    for (std::string line; std::getline(in, line);)
        lines.push_back(line);
    for (std::size_t i = 1; i + 1 < lines.size(); i += 2)
        std::swap(lines[i], lines[i + 1]);
    std::string swapped;
    for (const std::string &line : lines)
        swapped += line + "\n";
    ASSERT_NE(swapped, sorted);

    const TraceBundle original = smallBundle();
    for (unsigned threads : {1u, 2u, 7u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        ParseOptions options;
        options.threads = threads;
        TraceBundle a, b;
        ASSERT_TRUE(
            decodeCpuUsageCsv(io::ByteSpan(sorted), a, options).ok());
        ASSERT_TRUE(
            decodeCpuUsageCsv(io::ByteSpan(swapped), b, options).ok());
        std::ostringstream imageA, imageB;
        writeEtlc(a, imageA);
        writeEtlc(b, imageB);
        EXPECT_EQ(imageA.str(), imageB.str());
        // The settled header: the CPUs the rows used, and their span.
        EXPECT_EQ(b.numLogicalCpus, original.numLogicalCpus);
        EXPECT_EQ(b.startTime, original.cswitches.front().timestamp);
        EXPECT_EQ(b.stopTime, original.cswitches.back().timestamp);
    }
}

} // namespace

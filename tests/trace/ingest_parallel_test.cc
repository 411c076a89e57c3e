/**
 * @file
 * Differential tests for the zero-copy chunk-parallel readers.
 *
 * The contract under test: decodeCpuUsageCsv / decodeGpuUtilCsv
 * produce bundles, report counters, and error payloads
 * byte-identical to the serial getline reference
 * (tests/reference/csv_legacy.hh) at every thread count, in both
 * strict and lenient mode — including on corrupted input. The
 * chunk-boundary edge cases (CRLF, quoted quotes, final line without
 * a newline, more chunks than lines) are pinned explicitly; a
 * fault-injection sweep covers the long tail. decodeEtl decodes
 * serially whatever ParseOptions::threads says, so its outcome at
 * every thread count must equal its one-thread outcome.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "reference/csv_legacy.hh"
#include "support/corrupt.hh"
#include "trace/csv.hh"
#include "trace/etl.hh"
#include "trace/io.hh"
#include "trace/session.hh"

namespace {

using namespace deskpar::trace;

constexpr const char *kCpuHeader =
    "New Process,New PID,New TID,CPU,Ready Time (ns),"
    "Switch-In Time (ns),Old Process,Old PID,Old TID";

/** Thread counts every differential runs at. */
const unsigned kThreadCounts[] = {1, 2, 7};

/**
 * A varied bundle: comma'd and quoted process names, enough context
 * switches that any chunk split lands mid-stream, packets on several
 * engines, frames, lifecycle events and markers (for ETL).
 */
TraceBundle
makeBundle(unsigned rows)
{
    TraceBundle bundle;
    bundle.startTime = 1000;
    bundle.stopTime = 1000 + 100 * rows;
    bundle.numLogicalCpus = 12;
    bundle.processNames[0] = "Idle";
    bundle.processNames[7] = "vlc, media player";
    bundle.processNames[9] = "quote\"inside";
    for (Pid pid = 100; pid < 108; ++pid)
        bundle.processNames[pid] = "app-" + std::to_string(pid);

    for (unsigned i = 0; i < rows; ++i) {
        CSwitchEvent cs;
        cs.timestamp = 1000 + 100 * i;
        cs.cpu = i % 12;
        cs.oldPid = i % 3 ? 100 + i % 8 : 0;
        cs.oldTid = cs.oldPid * 10 + 1;
        cs.newPid = i % 5 ? 100 + (i + 3) % 8 : (i % 2 ? 7 : 9);
        cs.newTid = cs.newPid * 10 + 2;
        cs.readyTime = cs.timestamp - i % 9;
        bundle.cswitches.push_back(cs);
    }
    for (unsigned i = 0; i < rows / 3 + 1; ++i) {
        GpuPacketEvent gp;
        gp.queued = 1000 + 90 * i;
        gp.start = gp.queued + i % 4;
        gp.finish = gp.start + 40 + i % 17;
        gp.pid = 100 + i % 8;
        gp.engine = static_cast<GpuEngineId>(i % 4);
        gp.packetId = i;
        gp.queueSlot = i % 3;
        bundle.gpuPackets.push_back(gp);
    }
    for (unsigned i = 0; i < 8; ++i) {
        FrameEvent fr;
        fr.timestamp = 1200 + 400 * i;
        fr.pid = 100 + i % 8;
        fr.frameId = i;
        fr.synthesized = i % 3 == 0;
        bundle.frames.push_back(fr);

        ThreadLifeEvent tl;
        tl.timestamp = 1100 + 350 * i;
        tl.pid = 100 + i % 8;
        tl.tid = tl.pid * 10 + 5;
        tl.created = i % 2 == 0;
        tl.name = "worker-" + std::to_string(i);
        bundle.threadEvents.push_back(tl);
    }
    ProcessLifeEvent pl;
    pl.timestamp = 1050;
    pl.pid = 104;
    pl.name = "app-104";
    bundle.processEvents.push_back(pl);
    MarkerEvent mk;
    mk.timestamp = 2000;
    mk.label = "phase: steady, \"loaded\"";
    bundle.markers.push_back(mk);
    return bundle;
}

void
expectSameReports(const IngestReport &serial,
                  const IngestReport &chunked)
{
    EXPECT_EQ(serial.recordsParsed, chunked.recordsParsed);
    EXPECT_EQ(serial.recordsSkipped, chunked.recordsSkipped);
    EXPECT_EQ(serial.errorCount, chunked.errorCount);
    EXPECT_EQ(serial.salvaged, chunked.salvaged);
    ASSERT_EQ(serial.errors.size(), chunked.errors.size());
    for (std::size_t i = 0; i < serial.errors.size(); ++i) {
        SCOPED_TRACE("error " + std::to_string(i));
        const ParseError &a = serial.errors[i];
        const ParseError &b = chunked.errors[i];
        EXPECT_EQ(a.source, b.source);
        EXPECT_EQ(a.section, b.section);
        EXPECT_EQ(a.field, b.field);
        EXPECT_EQ(a.line, b.line);
        EXPECT_EQ(a.column, b.column);
        EXPECT_EQ(a.offset, b.offset);
        EXPECT_EQ(a.record, b.record);
        EXPECT_EQ(a.reason, b.reason);
        EXPECT_EQ(a.str(), b.str());
    }
}

void
expectSameCSwitches(const std::vector<CSwitchEvent> &a,
                    const std::vector<CSwitchEvent> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("cswitch " + std::to_string(i));
        EXPECT_EQ(a[i].timestamp, b[i].timestamp);
        EXPECT_EQ(a[i].cpu, b[i].cpu);
        EXPECT_EQ(a[i].oldPid, b[i].oldPid);
        EXPECT_EQ(a[i].oldTid, b[i].oldTid);
        EXPECT_EQ(a[i].newPid, b[i].newPid);
        EXPECT_EQ(a[i].newTid, b[i].newTid);
        EXPECT_EQ(a[i].readyTime, b[i].readyTime);
    }
}

void
expectSameGpuPackets(const std::vector<GpuPacketEvent> &a,
                     const std::vector<GpuPacketEvent> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t i = 0; i < a.size(); ++i) {
        SCOPED_TRACE("packet " + std::to_string(i));
        EXPECT_EQ(a[i].queued, b[i].queued);
        EXPECT_EQ(a[i].start, b[i].start);
        EXPECT_EQ(a[i].finish, b[i].finish);
        EXPECT_EQ(a[i].pid, b[i].pid);
        EXPECT_EQ(a[i].engine, b[i].engine);
        EXPECT_EQ(a[i].packetId, b[i].packetId);
        EXPECT_EQ(a[i].queueSlot, b[i].queueSlot);
    }
}

void
expectSameNames(const TraceBundle &a, const TraceBundle &b)
{
    ASSERT_EQ(a.processNames.size(), b.processNames.size());
    for (const auto &[pid, name] : a.processNames) {
        auto it = b.processNames.find(pid);
        ASSERT_NE(it, b.processNames.end()) << "pid " << pid;
        EXPECT_EQ(it->second, name) << "pid " << pid;
    }
}

void
expectSameBundles(const TraceBundle &a, const TraceBundle &b)
{
    EXPECT_EQ(a.startTime, b.startTime);
    EXPECT_EQ(a.stopTime, b.stopTime);
    EXPECT_EQ(a.numLogicalCpus, b.numLogicalCpus);
    expectSameNames(a, b);
    expectSameCSwitches(a.cswitches, b.cswitches);
    expectSameGpuPackets(a.gpuPackets, b.gpuPackets);
    ASSERT_EQ(a.frames.size(), b.frames.size());
    for (std::size_t i = 0; i < a.frames.size(); ++i) {
        EXPECT_EQ(a.frames[i].timestamp, b.frames[i].timestamp);
        EXPECT_EQ(a.frames[i].pid, b.frames[i].pid);
        EXPECT_EQ(a.frames[i].frameId, b.frames[i].frameId);
        EXPECT_EQ(a.frames[i].synthesized, b.frames[i].synthesized);
    }
    ASSERT_EQ(a.threadEvents.size(), b.threadEvents.size());
    for (std::size_t i = 0; i < a.threadEvents.size(); ++i) {
        EXPECT_EQ(a.threadEvents[i].timestamp,
                  b.threadEvents[i].timestamp);
        EXPECT_EQ(a.threadEvents[i].pid, b.threadEvents[i].pid);
        EXPECT_EQ(a.threadEvents[i].tid, b.threadEvents[i].tid);
        EXPECT_EQ(a.threadEvents[i].created,
                  b.threadEvents[i].created);
        EXPECT_EQ(a.threadEvents[i].name, b.threadEvents[i].name);
    }
    ASSERT_EQ(a.processEvents.size(), b.processEvents.size());
    for (std::size_t i = 0; i < a.processEvents.size(); ++i) {
        EXPECT_EQ(a.processEvents[i].timestamp,
                  b.processEvents[i].timestamp);
        EXPECT_EQ(a.processEvents[i].pid, b.processEvents[i].pid);
        EXPECT_EQ(a.processEvents[i].created,
                  b.processEvents[i].created);
        EXPECT_EQ(a.processEvents[i].name, b.processEvents[i].name);
    }
    ASSERT_EQ(a.markers.size(), b.markers.size());
    for (std::size_t i = 0; i < a.markers.size(); ++i) {
        EXPECT_EQ(a.markers[i].timestamp, b.markers[i].timestamp);
        EXPECT_EQ(a.markers[i].label, b.markers[i].label);
    }
}

/**
 * Parse @p text with the serial reference CPU reader and with the
 * span decoder at every thread count, both modes; everything must
 * match.
 */
void
cpuCsvDifferential(const std::string &text)
{
    for (ParseMode mode : {ParseMode::Strict, ParseMode::Lenient}) {
        SCOPED_TRACE(mode == ParseMode::Strict ? "strict"
                                               : "lenient");
        ParseOptions options;
        options.mode = mode;
        options.source = "differential.csv";

        TraceBundle serialBundle;
        std::istringstream in(text);
        IngestReport serial =
            legacy::readCpuUsageCsv(in, serialBundle, options);

        for (unsigned threads : kThreadCounts) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            ParseOptions copts = options;
            copts.threads = threads;
            TraceBundle chunkedBundle;
            IngestReport chunked =
                decodeCpuUsageCsv(text, chunkedBundle, copts);
            expectSameReports(serial, chunked);
            expectSameCSwitches(serialBundle.cswitches,
                                chunkedBundle.cswitches);
            expectSameNames(serialBundle, chunkedBundle);
        }
    }
}

void
gpuCsvDifferential(const std::string &text)
{
    for (ParseMode mode : {ParseMode::Strict, ParseMode::Lenient}) {
        SCOPED_TRACE(mode == ParseMode::Strict ? "strict"
                                               : "lenient");
        ParseOptions options;
        options.mode = mode;
        options.source = "differential_gpu.csv";

        TraceBundle serialBundle;
        std::istringstream in(text);
        IngestReport serial =
            legacy::readGpuUtilCsv(in, serialBundle, options);

        for (unsigned threads : kThreadCounts) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            ParseOptions copts = options;
            copts.threads = threads;
            TraceBundle chunkedBundle;
            IngestReport chunked =
                decodeGpuUtilCsv(text, chunkedBundle, copts);
            expectSameReports(serial, chunked);
            expectSameGpuPackets(serialBundle.gpuPackets,
                                 chunkedBundle.gpuPackets);
            expectSameNames(serialBundle, chunkedBundle);
        }
    }
}

/**
 * Decode @p bytes with decodeEtl at one thread and at every other
 * thread count, both modes; the thread knob must change nothing.
 * Returns the one-thread strict report for further checks.
 */
IngestReport
etlDifferential(const std::string &bytes)
{
    IngestReport strictReport;
    for (ParseMode mode : {ParseMode::Strict, ParseMode::Lenient}) {
        SCOPED_TRACE(mode == ParseMode::Strict ? "strict"
                                               : "lenient");
        ParseOptions options;
        options.mode = mode;
        options.source = "differential.etl";
        options.threads = 1;

        IngestReport serial;
        TraceBundle serialBundle = decodeEtl(bytes, options, serial);
        if (mode == ParseMode::Strict)
            strictReport = serial;

        for (unsigned threads : kThreadCounts) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            ParseOptions copts = options;
            copts.threads = threads;
            IngestReport chunked;
            TraceBundle chunkedBundle =
                decodeEtl(bytes, copts, chunked);
            expectSameReports(serial, chunked);
            expectSameBundles(serialBundle, chunkedBundle);
        }
    }
    return strictReport;
}

/** CSV rows only (no header) for hand-built inputs. */
std::string
cpuRow(unsigned i)
{
    std::string n = std::to_string(i);
    return "app-" + n + "," + std::to_string(100 + i) + "," +
           std::to_string(1000 + i) + "," + std::to_string(i % 12) +
           "," + std::to_string(5000 + 10 * i) + "," +
           std::to_string(5001 + 10 * i) + ",Idle,0,0";
}

/** A CPU CSV row that decodes cleanly (cpuRow's label has no pid). */
std::string
goodRow(unsigned i)
{
    std::string pid = std::to_string(100 + i % 5);
    return "app-" + pid + " (" + pid + ")," + pid + "," +
           std::to_string(1000 + i) + "," + std::to_string(i % 12) +
           "," + std::to_string(5000 + 10 * i) + "," +
           std::to_string(5001 + 10 * i) + ",Idle (0),0,0";
}

TEST(ParallelIngest, CrlfLinesAcrossChunks)
{
    std::string text = std::string(kCpuHeader) + "\r\n";
    for (unsigned i = 0; i < 40; ++i)
        text += cpuRow(i) + "\r\n";
    cpuCsvDifferential(text);
}

TEST(ParallelIngest, FinalLineWithoutNewline)
{
    std::string text = std::string(kCpuHeader) + "\n";
    for (unsigned i = 0; i < 17; ++i)
        text += cpuRow(i) + "\n";
    text += cpuRow(17); // no trailing newline
    cpuCsvDifferential(text);
}

TEST(ParallelIngest, MoreChunksThanLines)
{
    // threads=7 over 3 rows: some chunks must come up empty.
    std::string text = std::string(kCpuHeader) + "\n";
    for (unsigned i = 0; i < 3; ++i)
        text += cpuRow(i) + "\n";
    cpuCsvDifferential(text);
}

TEST(ParallelIngest, HeaderOnlyAndEmptyInput)
{
    cpuCsvDifferential(std::string(kCpuHeader) + "\n");
    cpuCsvDifferential(std::string(kCpuHeader)); // no newline
    cpuCsvDifferential("");                      // missing header
    cpuCsvDifferential("bogus,header\n1,2,3\n");
}

TEST(ParallelIngest, QuotedFieldsForceSerialFallback)
{
    // A quote anywhere in the body forbids naive newline splitting;
    // the reader must fall back and still match the legacy output —
    // including a quoted field containing an (escaped) newline-free
    // payload next to rows that would otherwise straddle chunks.
    std::string text = std::string(kCpuHeader) + "\n";
    for (unsigned i = 0; i < 10; ++i) {
        text += "\"vlc, player " + std::to_string(i) + "\"," +
                std::to_string(200 + i) + "," +
                std::to_string(2000 + i) + ",3,10,11,"
                "\"old \"\"proc\"\"\",7,70\n";
    }
    cpuCsvDifferential(text);
}

TEST(ParallelIngest, QuotedNewlineDefectMatchesSerial)
{
    // The legacy reader getline()s at *every* newline, so a quoted
    // field spanning lines is an unterminated-quote defect on the
    // first line and a stray-quote defect on the continuation. The
    // chunked reader must reproduce those diagnostics exactly.
    std::string text = std::string(kCpuHeader) + "\n";
    text += cpuRow(0) + "\n";
    text += "\"spans\nlines\",101,1001,2,20,21,Idle,0,0\n";
    for (unsigned i = 2; i < 12; ++i)
        text += cpuRow(i) + "\n";
    cpuCsvDifferential(text);
}

TEST(ParallelIngest, MalformedNumbersStrictAndLenient)
{
    // Defects scattered so different chunks hit different errors;
    // strict must stop at the first one regardless of which worker
    // found its chunk's defect first.
    std::string text = std::string(kCpuHeader) + "\n";
    for (unsigned i = 0; i < 30; ++i) {
        if (i % 7 == 3) {
            text += "bad-row," + std::to_string(i) + "\n";
        } else if (i % 11 == 5) {
            text += "app,1x2,3,4,5,6,Idle,0,0\n";
        } else {
            text += cpuRow(i) + "\n";
        }
    }
    cpuCsvDifferential(text);
}

TEST(ParallelIngest, ErrorStorageCapIsChunkInvariant)
{
    // More defects than maxStoredErrors: the stored prefix and the
    // beyond-cap count must match the serial reader at every thread
    // count.
    std::string text = std::string(kCpuHeader) + "\n";
    for (unsigned i = 0; i < 100; ++i)
        text += "only," + std::to_string(i) + ",fields\n";
    cpuCsvDifferential(text);
}

TEST(ParallelIngest, BlankLinesAndDefectsInsideAndAcrossChunks)
{
    // Each chunk writes its good rows straight into its slice of the
    // output, sized for one row per line; blank lines and rejected
    // rows leave holes that the merge compacts in file order. Put
    // both everywhere: first and last lines, runs of blank lines,
    // defects on either side of every possible chunk boundary.
    std::string text = std::string(kCpuHeader) + "\n\n";
    text += "app,1x2,3,4,5,6,Idle,0,0\n";
    for (unsigned i = 0; i < 160; ++i) {
        if (i % 13 == 4)
            text += "\n\n\n";
        if (i % 17 == 8)
            text += "short,row\n";
        if (i % 19 == 11)
            text += "\r\n"; // not blank: one empty field
        if (i % 23 == 7)
            text += goodRow(i) + ",extra\n";
        text += goodRow(i) + "\n";
    }
    text += "trailing,bad\n\n";
    cpuCsvDifferential(text);
}

TEST(ParallelIngest, DecodeAppendsOntoANonEmptyBundle)
{
    // The output slices start past the events already in the bundle.
    std::string text = std::string(kCpuHeader) + "\n";
    for (unsigned i = 0; i < 40; ++i)
        text += (i % 9 == 2 ? std::string("bad\n") : goodRow(i) + "\n");
    TraceBundle seed = makeBundle(25);
    for (unsigned threads : kThreadCounts) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        ParseOptions options;
        options.mode = ParseMode::Lenient;
        options.threads = threads;
        TraceBundle serial = seed;
        std::istringstream in(text);
        IngestReport a = legacy::readCpuUsageCsv(in, serial, options);
        TraceBundle chunked = seed;
        IngestReport b = decodeCpuUsageCsv(text, chunked, options);
        expectSameReports(a, b);
        expectSameCSwitches(serial.cswitches, chunked.cswitches);
        expectSameNames(serial, chunked);
    }
}

TEST(ParallelIngest, TinyLinesCannotBalloonTheOutput)
{
    // One slot per line would be 40 bytes of events per byte of a
    // file of empty lines. A good CPU row needs at least 18 bytes, so
    // the output is sized to at most one slot per 18 bytes.
    for (const std::string line : {"\n", "x\n", ",,,,,,,,\n"}) {
        std::string text = std::string(kCpuHeader) + "\n";
        for (unsigned i = 0; i < 20000; ++i)
            text += line;
        text += goodRow(1) + "\n";
        for (unsigned threads : kThreadCounts) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            ParseOptions options;
            options.mode = ParseMode::Lenient;
            options.threads = threads;
            TraceBundle bundle;
            IngestReport report =
                decodeCpuUsageCsv(text, bundle, options);
            EXPECT_EQ(report.recordsParsed, 1u);
            ASSERT_EQ(bundle.cswitches.size(), 1u);
            EXPECT_LE(bundle.cswitches.capacity(),
                      text.size() / 18 + threads);
        }
    }
}

TEST(ParallelIngest, CpuCsvDifferentialGeneratedBundle)
{
    std::ostringstream out;
    writeCpuUsageCsv(makeBundle(500), out);
    cpuCsvDifferential(out.str());
}

TEST(ParallelIngest, GpuCsvDifferentialGeneratedBundle)
{
    std::ostringstream out;
    writeGpuUtilCsv(makeBundle(300), out);
    gpuCsvDifferential(out.str());
}

TEST(ParallelIngest, CpuCsvDifferentialMutants)
{
    std::ostringstream out;
    writeCpuUsageCsv(makeBundle(60), out);
    FaultInjector injector(out.str(), 0x5eed0001, /*text=*/true);
    for (std::size_t i = 0; i < 48; ++i) {
        SCOPED_TRACE("mutant " + std::to_string(i) + " (" +
                     injector.mutationFor(i).describe() + ")");
        cpuCsvDifferential(injector.mutant(i));
    }
}

TEST(ParallelIngest, EtlDifferentialGeneratedBundle)
{
    TraceBundle written = makeBundle(400);
    std::ostringstream out;
    writeEtl(written, out);
    IngestReport report = etlDifferential(out.str());
    EXPECT_TRUE(report.ok());

    ParseOptions options;
    options.threads = 7;
    IngestReport again;
    TraceBundle decoded = decodeEtl(out.str(), options, again);
    ASSERT_TRUE(again.ok());
    expectSameCSwitches(written.cswitches, decoded.cswitches);
    expectSameGpuPackets(written.gpuPackets, decoded.gpuPackets);
    expectSameNames(written, decoded);
}

TEST(ParallelIngest, EtlDifferentialMutants)
{
    std::ostringstream out;
    writeEtl(makeBundle(60), out);
    FaultInjector injector(out.str(), 0x5eed0002, /*text=*/false);
    for (std::size_t i = 0; i < 48; ++i) {
        SCOPED_TRACE("mutant " + std::to_string(i) + " (" +
                     injector.mutationFor(i).describe() + ")");
        etlDifferential(injector.mutant(i));
    }
}

TEST(ParallelIngest, EtlTruncatedFramingFallsBackIdentically)
{
    // Chop the file at awkward points: inside the magic, the header,
    // a section length varint, and a section payload. Every cut must
    // fail strict decoding with an error naming the source, and the
    // outcome must not depend on the thread count.
    std::ostringstream out;
    writeEtl(makeBundle(40), out);
    std::string bytes = out.str();
    for (std::size_t cut :
         {std::size_t(0), std::size_t(4), std::size_t(9),
          std::size_t(11), bytes.size() / 2, bytes.size() - 1}) {
        SCOPED_TRACE("cut " + std::to_string(cut));
        IngestReport report = etlDifferential(bytes.substr(0, cut));
        EXPECT_FALSE(report.ok());
        ASSERT_FALSE(report.errors.empty());
        EXPECT_EQ(report.errors.front().source, "differential.etl");
    }
}

} // namespace

/**
 * @file
 * Corrupted-trace corpus tests.
 *
 * The ingestion contract under fault injection: every deterministic
 * mutant of a valid serialized trace either parses or yields a
 * structured ParseError — never a process abort, a foreign exception
 * (std::out_of_range from stoull and friends), or undefined behavior.
 * The mutants run through the production decoders (decode*), serial
 * and fanned out. The corpus also pins exact error locations for the
 * adversarial cases the decoders must diagnose, and the
 * lenient/strict round-trip properties on clean input.
 */

#include <gtest/gtest.h>

#include <sstream>
#include <string>
#include <vector>

#include "support/corrupt.hh"
#include "support/etlc_scan.hh"
#include "trace/csv.hh"
#include "trace/diagnostic.hh"
#include "trace/container.hh"
#include "trace/etl.hh"
#include "trace/etlc.hh"
#include "trace/session.hh"

namespace {

using namespace deskpar::trace;

/**
 * A bundle big enough that mutants usually land inside real records:
 * a handful of processes, dozens of context switches, GPU packets on
 * every engine, frames, lifecycle events and markers.
 */
TraceBundle
corpusBundle()
{
    TraceBundle bundle;
    bundle.startTime = 1000;
    bundle.stopTime = 500000;
    bundle.numLogicalCpus = 12;
    bundle.processNames[0] = "Idle";
    for (Pid pid = 1000; pid < 1008; ++pid) {
        bundle.processNames[pid] =
            "app-" + std::to_string(pid - 1000);
    }
    bundle.processNames[2000] = "renderer, \"quoted\"";

    for (unsigned i = 0; i < 48; ++i) {
        CSwitchEvent cs;
        cs.timestamp = 1000 + 100 * i;
        cs.cpu = i % 12;
        cs.oldPid = i % 2 ? 1000 + i % 8 : 0;
        cs.oldTid = cs.oldPid * 10 + 1;
        cs.newPid = i % 2 ? 0 : 1000 + (i + 1) % 8;
        cs.newTid = cs.newPid * 10 + 1;
        cs.readyTime = cs.timestamp - i % 7;
        bundle.cswitches.push_back(cs);
    }
    for (unsigned i = 0; i < 20; ++i) {
        GpuPacketEvent gp;
        gp.start = 2000 + 150 * i;
        gp.queued = gp.start - 40 - i;
        gp.finish = gp.start + 90 + i;
        gp.pid = 1000 + i % 8;
        gp.engine = static_cast<GpuEngineId>(i % kNumGpuEngines);
        gp.packetId = i;
        gp.queueSlot = static_cast<std::uint8_t>(i % 4);
        bundle.gpuPackets.push_back(gp);
    }
    for (unsigned i = 0; i < 10; ++i) {
        FrameEvent fr;
        fr.timestamp = 3000 + 1000 * i;
        fr.pid = 1000;
        fr.frameId = i;
        fr.synthesized = i % 3 == 0;
        bundle.frames.push_back(fr);
    }
    for (unsigned i = 0; i < 6; ++i) {
        ThreadLifeEvent tl;
        tl.timestamp = 1200 + 10 * i;
        tl.pid = 1000 + i;
        tl.tid = tl.pid * 10 + 1;
        tl.created = true;
        tl.name = "worker-" + std::to_string(i);
        bundle.threadEvents.push_back(tl);
    }
    ProcessLifeEvent pl;
    pl.timestamp = 1100;
    pl.pid = 1000;
    pl.created = true;
    pl.name = "app-0";
    bundle.processEvents.push_back(pl);
    MarkerEvent mk;
    mk.timestamp = 1500;
    mk.label = "input: click";
    bundle.markers.push_back(mk);
    return bundle;
}

std::string
cpuCsvText()
{
    std::ostringstream out;
    writeCpuUsageCsv(corpusBundle(), out);
    return out.str();
}

std::string
gpuCsvText()
{
    std::ostringstream out;
    writeGpuUtilCsv(corpusBundle(), out);
    return out.str();
}

std::string
etlBytes()
{
    std::ostringstream out;
    writeEtl(corpusBundle(), out);
    return out.str();
}

std::string
etlcBytes()
{
    std::ostringstream out;
    writeEtlc(corpusBundle(), out);
    return out.str();
}

/** The corpus invariants one ingest of @p report must satisfy. */
void
checkReport(const IngestReport &report, const ParseOptions &options)
{
    EXPECT_LE(report.errors.size(), options.maxStoredErrors);
    EXPECT_GE(report.errorCount, report.errors.size());
    if (!report.ok()) {
        ASSERT_FALSE(report.errors.empty());
        EXPECT_FALSE(report.errors.front().reason.empty());
        // str() must render whatever location combination the
        // reader produced without tripping anything.
        EXPECT_FALSE(report.errors.front().str().empty());
    }
}

constexpr std::size_t kMutantsPerReader = 250;

/**
 * Feed every mutant to @p ingest in both modes, serially and fanned
 * out over 7 threads (for the chunk- and block-parallel decoders, the
 * fan-out merge too); nothing escapes.
 */
template <typename IngestFn>
void
runCorpus(const std::string &valid, TraceFormat format,
          IngestFn &&ingest)
{
    FaultInjector injector(valid, 0xdeadbeefcafe1234ull, format);
    for (unsigned threads : {1u, 7u}) {
        for (std::size_t i = 0; i < kMutantsPerReader; ++i) {
            std::string mutant = injector.mutant(i);
            for (ParseMode mode :
                 {ParseMode::Strict, ParseMode::Lenient}) {
                SCOPED_TRACE(
                    "mutant " + std::to_string(i) + " (" +
                    injector.mutationFor(i).describe() + "), " +
                    (mode == ParseMode::Strict ? "strict"
                                               : "lenient") +
                    ", threads " + std::to_string(threads));
                ParseOptions options;
                options.mode = mode;
                options.source = "mutant-" + std::to_string(i);
                options.threads = threads;
                IngestReport report;
                ASSERT_NO_THROW(report = ingest(mutant, options));
                checkReport(report, options);
            }
        }
    }
}

TEST(CorruptionCorpus, CpuCsvMutantsNeverEscape)
{
    runCorpus(cpuCsvText(), TraceFormat::Text,
              [](const std::string &data,
                 const ParseOptions &options) {
                  TraceBundle bundle;
                  return decodeCpuUsageCsv(io::ByteSpan(data), bundle,
                                           options);
              });
}

TEST(CorruptionCorpus, GpuCsvMutantsNeverEscape)
{
    runCorpus(gpuCsvText(), TraceFormat::Text,
              [](const std::string &data,
                 const ParseOptions &options) {
                  TraceBundle bundle;
                  return decodeGpuUtilCsv(io::ByteSpan(data), bundle,
                                          options);
              });
}

TEST(CorruptionCorpus, EtlMutantsNeverEscape)
{
    runCorpus(etlBytes(), TraceFormat::Binary,
              [](const std::string &data,
                 const ParseOptions &options) {
                  IngestReport report;
                  decodeEtl(io::ByteSpan(data), options, report);
                  return report;
              });
}

TEST(CorruptionCorpus, EtlcMutantsNeverEscape)
{
    // The block-anatomy kinds (flipped checksums, truncated final
    // blocks, inflated length fields, varint overruns) join the
    // byte-level rotation.
    runCorpus(etlcBytes(), TraceFormat::Etlc,
              [](const std::string &data,
                 const ParseOptions &options) {
                  IngestReport report;
                  decodeEtlc(io::ByteSpan(data), options, report);
                  return report;
              });
}

// ---------------------------------------------------------------------
// Adversarial cases with pinned locations: the CSV readers.
// ---------------------------------------------------------------------

const char *kCpuHeader =
    "New Process,New PID,New TID,CPU,Ready Time (ns),"
    "Switch-In Time (ns),Old Process,Old PID,Old TID\n";
const char *kGpuHeader =
    "Process,PID,Engine,Queue Slot,Queued (ns),"
    "Start Execution (ns),Finished (ns)\n";

/** The decoders' options for the pinned cases: one thread. */
ParseOptions
pinnedOptions(ParseMode mode, const char *source)
{
    ParseOptions options;
    options.mode = mode;
    options.source = source;
    options.threads = 1;
    return options;
}

IngestReport
ingestCpu(const std::string &text,
          ParseMode mode = ParseMode::Strict,
          TraceBundle *out = nullptr)
{
    TraceBundle bundle;
    IngestReport report = decodeCpuUsageCsv(
        io::ByteSpan(text), bundle, pinnedOptions(mode, "test.csv"));
    if (out)
        *out = std::move(bundle);
    return report;
}

IngestReport
ingestGpu(const std::string &text,
          ParseMode mode = ParseMode::Strict,
          TraceBundle *out = nullptr)
{
    TraceBundle bundle;
    IngestReport report = decodeGpuUtilCsv(
        io::ByteSpan(text), bundle, pinnedOptions(mode, "test.csv"));
    if (out)
        *out = std::move(bundle);
    return report;
}

TEST(CsvDiagnostics, EmptyInputIsAHeaderErrorOnLineOne)
{
    IngestReport report = ingestCpu("");
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_EQ(report.errors[0].section, "header");
    EXPECT_EQ(report.errors[0].line, 1u);
    EXPECT_EQ(report.errors[0].reason, "empty input");
}

TEST(CsvDiagnostics, TruncatedHeaderIsAHeaderErrorOnLineOne)
{
    IngestReport report = ingestCpu("New Proc\n");
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_EQ(report.errors[0].section, "header");
    EXPECT_EQ(report.errors[0].line, 1u);
    EXPECT_NE(report.errors[0].reason.find("unexpected header"),
              std::string::npos);
}

TEST(CsvDiagnostics, BadFieldCountNamesTheLine)
{
    std::string text = std::string(kCpuHeader) +
                       "app (1000),1000,11,2,100,150,Idle (0),0,0\n" +
                       "app (1000),1000,11,2,100\n";
    IngestReport report = ingestCpu(text);
    EXPECT_EQ(report.recordsParsed, 1u);
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_EQ(report.errors[0].line, 3u);
    EXPECT_NE(report.errors[0].reason.find(
                  "bad field count (5, want 9)"),
              std::string::npos);
}

TEST(CsvDiagnostics, TrailingJunkInNumberNamesTheField)
{
    // The uncaught-std::stoull bug this PR fixes: "150xyz" used to
    // parse as 150 (or throw std::invalid_argument elsewhere).
    std::string text =
        std::string(kCpuHeader) +
        "app (1000),1000,11,2,100,150xyz,Idle (0),0,0\n";
    IngestReport report = ingestCpu(text);
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_EQ(report.errors[0].field, "Switch-In Time (ns)");
    EXPECT_EQ(report.errors[0].line, 2u);
    EXPECT_NE(report.errors[0].reason.find("non-numeric character"),
              std::string::npos);
}

TEST(CsvDiagnostics, TwentyDigitOverflowIsRejected)
{
    std::string text =
        std::string(kCpuHeader) +
        "app (1000),1000,11,2,99999999999999999999,150,"
        "Idle (0),0,0\n";
    IngestReport report = ingestCpu(text);
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_EQ(report.errors[0].field, "Ready Time (ns)");
    EXPECT_NE(report.errors[0].reason.find("overflows 64 bits"),
              std::string::npos);
}

TEST(CsvDiagnostics, PidColumnBoundIsEnforced)
{
    // 2^32 fits in 64 bits but not in a Pid.
    std::string text = std::string(kCpuHeader) +
                       "app (4294967296),4294967296,11,2,100,150,"
                       "Idle (0),0,0\n";
    IngestReport report = ingestCpu(text);
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_NE(report.errors[0].reason.find("out of range"),
              std::string::npos);
}

TEST(CsvDiagnostics, LabelPidMismatchIsDiagnosed)
{
    std::string text =
        std::string(kCpuHeader) +
        "app (1000),1001,11,2,100,150,Idle (0),0,0\n";
    IngestReport report = ingestCpu(text);
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_EQ(report.errors[0].field, "New PID");
    EXPECT_NE(report.errors[0].reason.find("label/PID mismatch"),
              std::string::npos);
}

TEST(CsvDiagnostics, InvertedReadyTimeIsRejectedInStrictMode)
{
    // A thread cannot be dispatched before it became runnable; the
    // wait math (timestamp - readyTime) would wrap to ~2^64 ns.
    std::string text =
        std::string(kCpuHeader) +
        "app (1000),1000,11,2,200,150,Idle (0),0,0\n";
    IngestReport report = ingestCpu(text);
    EXPECT_EQ(report.recordsParsed, 0u);
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_EQ(report.errors[0].field, "Ready Time (ns)");
    EXPECT_EQ(report.errors[0].line, 2u);
    EXPECT_NE(report.errors[0].reason.find(
                  "ready time 200 after switch-in time 150"),
              std::string::npos);
}

TEST(CsvDiagnostics, InvertedReadyTimeIsClampedInLenientMode)
{
    std::string text =
        std::string(kCpuHeader) +
        "app (1000),1000,11,2,200,150,Idle (0),0,0\n" +
        "app (1000),1000,11,2,300,350,Idle (0),0,0\n";
    TraceBundle bundle;
    IngestReport report = ingestCpu(text, ParseMode::Lenient, &bundle);
    // The record is salvageable: kept, counted as parsed AND
    // clamped, and surfaced as a repair — not an error.
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.recordsParsed, 2u);
    EXPECT_EQ(report.recordsSkipped, 0u);
    EXPECT_EQ(report.recordsClamped, 1u);
    EXPECT_EQ(report.errorCount, 0u);
    ASSERT_EQ(report.repairs.size(), 1u);
    EXPECT_EQ(report.repairs[0].line, 2u);
    ASSERT_EQ(bundle.cswitches.size(), 2u);
    EXPECT_EQ(bundle.cswitches[0].readyTime, 150u);
    EXPECT_EQ(bundle.cswitches[0].timestamp, 150u);
    EXPECT_EQ(bundle.cswitches[1].readyTime, 300u);
}

TEST(CsvDiagnostics, ClampRepairsRenderAsWarningDiagnostics)
{
    std::string text =
        std::string(kCpuHeader) +
        "app (1000),1000,11,2,200,150,Idle (0),0,0\n";
    IngestReport report = ingestCpu(text, ParseMode::Lenient);
    auto diags = report.diagnostics();
    ASSERT_EQ(diags.size(), 1u);
    EXPECT_EQ(diags[0].severity, Severity::Warning);
    EXPECT_EQ(diags[0].component, "ingest");
}

TEST(CsvDiagnostics, WriterRefusesInvertedReadyTime)
{
    TraceBundle bundle = corpusBundle();
    bundle.cswitches[7].readyTime =
        bundle.cswitches[7].timestamp + 1;
    std::ostringstream out;
    try {
        writeCpuUsageCsv(bundle, out);
        FAIL() << "expected TraceParseError";
    } catch (const TraceParseError &e) {
        EXPECT_EQ(e.error().section, "CSwitch");
        EXPECT_EQ(e.error().record, 7u);
        EXPECT_NE(e.error().reason.find("after switch-in time"),
                  std::string::npos);
    }
}

/** The field splitter's defect for @p line (it must fail). */
ParseError
splitError(std::string_view line)
{
    std::vector<std::string_view> fields;
    std::string scratch;
    ParseError err;
    EXPECT_FALSE(splitCsvFieldsView(line, fields, scratch, err));
    return err;
}

TEST(CsvDiagnostics, UnterminatedQuoteNamesItsColumn)
{
    ParseError err = splitError("a,\"bc,d");
    EXPECT_EQ(err.column, 3u);
    EXPECT_NE(err.reason.find("unterminated quoted field"),
              std::string::npos);
}

TEST(CsvDiagnostics, MidFieldQuoteNamesItsColumn)
{
    ParseError err = splitError("a\"b,c");
    EXPECT_EQ(err.column, 2u);
    EXPECT_NE(err.reason.find("quote inside unquoted field 1"),
              std::string::npos);
}

TEST(CsvDiagnostics, TextAfterClosingQuoteIsRejected)
{
    ParseError err = splitError("\"ab\"x,c");
    EXPECT_EQ(err.column, 5u);
    EXPECT_NE(err.reason.find("text after closing quote"),
              std::string::npos);
}

TEST(CsvDiagnostics, QuoteDefectInsideARowGetsLineAndColumn)
{
    std::string text =
        std::string(kCpuHeader) +
        "ap\"p (1000),1000,11,2,100,150,Idle (0),0,0\n";
    IngestReport report = ingestCpu(text);
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_EQ(report.errors[0].line, 2u);
    EXPECT_EQ(report.errors[0].column, 3u);
    EXPECT_EQ(report.errors[0].section, "row");
}

TEST(CsvDiagnostics, UnknownGpuEngineNamesTheField)
{
    std::string text = std::string(kGpuHeader) +
                       "app (1000),1000,Quantum,0,5,10,20\n";
    IngestReport report = ingestGpu(text);
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_EQ(report.errors[0].field, "Engine");
    EXPECT_NE(report.errors[0].reason.find(
                  "unknown engine 'Quantum'"),
              std::string::npos);
}

TEST(CsvDiagnostics, LenientModeSkipsBadRowsAndKeepsGoodOnes)
{
    std::string text =
        std::string(kCpuHeader) +
        "app (1000),1000,11,2,100,150,Idle (0),0,0\n" +
        "garbage line with no commas\n" +
        "app (1000),1000,11,2,200,250xyz,Idle (0),0,0\n" +
        "app (1000),1000,11,2,300,350,Idle (0),0,0\n";
    IngestReport report = ingestCpu(text, ParseMode::Lenient);
    EXPECT_EQ(report.recordsParsed, 2u);
    EXPECT_EQ(report.recordsSkipped, 2u);
    EXPECT_EQ(report.errorCount, 2u);
    EXPECT_EQ(report.errors[0].line, 3u);
    EXPECT_EQ(report.errors[1].line, 4u);
}

TEST(CsvDiagnostics, StrictModeStopsAtTheFirstBadRow)
{
    std::string text =
        std::string(kCpuHeader) +
        "app (1000),1000,11,2,100,150,Idle (0),0,0\n" +
        "garbage line with no commas\n" +
        "app (1000),1000,11,2,300,350,Idle (0),0,0\n";
    TraceBundle bundle;
    IngestReport report = ingestCpu(text, ParseMode::Strict, &bundle);
    EXPECT_EQ(report.recordsParsed, 1u);
    EXPECT_EQ(report.errorCount, 1u);
    // The partial bundle holds exactly the rows before the defect.
    EXPECT_EQ(bundle.cswitches.size(), 1u);
}

// ---------------------------------------------------------------------
// Adversarial cases with pinned locations: the .etl container.
// ---------------------------------------------------------------------

IngestReport
ingestEtl(const std::string &bytes,
          ParseMode mode = ParseMode::Strict,
          TraceBundle *out = nullptr)
{
    IngestReport report;
    TraceBundle bundle = decodeEtl(
        io::ByteSpan(bytes), pinnedOptions(mode, "test.etl"), report);
    if (out)
        *out = std::move(bundle);
    return report;
}

TEST(EtlDiagnostics, BadMagicIsAHeaderErrorAtOffsetZero)
{
    std::string bytes = etlBytes();
    bytes[0] ^= 0x40;
    IngestReport report = ingestEtl(bytes);
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_EQ(report.errors[0].section, "header");
    EXPECT_EQ(report.errors[0].offset, 0u);
    EXPECT_EQ(report.errors[0].reason, "bad magic");
}

TEST(EtlDiagnostics, TruncationInsideTheHeaderNamesTheField)
{
    // Keep only the magic: the version varint is missing.
    IngestReport report = ingestEtl(etlBytes().substr(0, 8));
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_EQ(report.errors[0].section, "header");
    EXPECT_EQ(report.errors[0].field, "version");
    EXPECT_EQ(report.errors[0].reason, "truncated varint");
    EXPECT_EQ(report.errors[0].offset, 8u);
}

TEST(EtlDiagnostics, TailTruncationYieldsAStructuredError)
{
    // Cuts inside the magic, the header, the first section's framing
    // and a section payload, and just short of the End tag: every one
    // is a structured error naming the file in both modes.
    std::string bytes = etlBytes();
    for (std::size_t cut :
         {std::size_t(0), std::size_t(4), std::size_t(9),
          std::size_t(11), bytes.size() / 2, bytes.size() - 2,
          bytes.size() - 1}) {
        for (ParseMode mode : {ParseMode::Strict, ParseMode::Lenient}) {
            SCOPED_TRACE("cut " + std::to_string(cut) +
                         (mode == ParseMode::Strict ? ", strict"
                                                    : ", lenient"));
            IngestReport report = ingestEtl(bytes.substr(0, cut), mode);
            EXPECT_FALSE(report.ok());
            ASSERT_FALSE(report.errors.empty());
            EXPECT_EQ(report.errors.front().source, "test.etl");
        }
    }
}

TEST(EtlDiagnostics, LenientModeSkipsAnUnknownSection)
{
    // Splice an unknown section frame just before the End tag; a
    // v3 reader must hop over it via the length prefix.
    std::string bytes = etlBytes();
    std::string frame;
    frame.push_back(static_cast<char>(0x63));
    putVarint(frame, 3);
    frame += "abc";
    bytes.insert(bytes.size() - 1, frame);

    IngestReport strict = ingestEtl(bytes);
    EXPECT_FALSE(strict.ok());
    ASSERT_FALSE(strict.errors.empty());
    EXPECT_NE(strict.errors[0].reason.find("unknown section tag 99"),
              std::string::npos);

    TraceBundle salvaged;
    IngestReport lenient =
        ingestEtl(bytes, ParseMode::Lenient, &salvaged);
    EXPECT_EQ(lenient.errorCount, 1u);
    // Everything framed before (and after) the junk still decodes.
    TraceBundle original = corpusBundle();
    EXPECT_EQ(salvaged.cswitches.size(), original.cswitches.size());
    EXPECT_EQ(salvaged.gpuPackets.size(),
              original.gpuPackets.size());
    EXPECT_EQ(salvaged.processNames.size(),
              original.processNames.size());
}

/**
 * A minimal one-cswitch trace whose serialized readyTime varint is a
 * unique single byte we can binary-patch into an inverted value (the
 * writer itself refuses to emit one, so the reader tests must forge
 * the bytes).
 */
std::string
patchedInvertedEtl()
{
    TraceBundle bundle;
    bundle.startTime = 0;
    bundle.stopTime = 110;
    bundle.numLogicalCpus = 2;
    CSwitchEvent cs;
    cs.timestamp = 100;
    cs.cpu = 1;
    cs.oldPid = 0;
    cs.oldTid = 0;
    cs.newPid = 5;
    cs.newTid = 6;
    cs.readyTime = 90;
    bundle.cswitches.push_back(cs);

    std::ostringstream out;
    writeEtl(bundle, out);
    std::string bytes = out.str();

    // 90 is 0x5a, a single-byte varint no other field or header
    // byte uses; the patch must hit exactly one spot.
    std::size_t count = 0, at = 0;
    for (std::size_t i = 0; i < bytes.size(); ++i) {
        if (static_cast<unsigned char>(bytes[i]) == 90) {
            ++count;
            at = i;
        }
    }
    EXPECT_EQ(count, 1u) << "ambiguous patch target";
    bytes[at] = 120; // readyTime 120 > timestamp 100
    return bytes;
}

TEST(EtlDiagnostics, InvertedReadyTimeIsRejectedInStrictMode)
{
    IngestReport report = ingestEtl(patchedInvertedEtl());
    EXPECT_FALSE(report.ok());
    ASSERT_FALSE(report.errors.empty());
    EXPECT_NE(report.errors[0].reason.find(
                  "ready time 120 after switch-in time 100"),
              std::string::npos);
}

TEST(EtlDiagnostics, InvertedReadyTimeIsClampedInLenientMode)
{
    TraceBundle bundle;
    IngestReport report = ingestEtl(patchedInvertedEtl(),
                                    ParseMode::Lenient, &bundle);
    EXPECT_TRUE(report.ok());
    EXPECT_EQ(report.recordsClamped, 1u);
    ASSERT_EQ(report.repairs.size(), 1u);
    EXPECT_NE(report.repairs[0].reason.find("(clamped)"),
              std::string::npos);
    ASSERT_EQ(bundle.cswitches.size(), 1u);
    EXPECT_EQ(bundle.cswitches[0].readyTime, 100u);
    EXPECT_EQ(bundle.cswitches[0].timestamp, 100u);
}

TEST(EtlDiagnostics, WriteRejectsInvertedReadyTime)
{
    TraceBundle bundle = corpusBundle();
    bundle.cswitches[11].readyTime =
        bundle.cswitches[11].timestamp + 5;
    std::ostringstream out;
    try {
        writeEtl(bundle, out);
        FAIL() << "expected TraceParseError";
    } catch (const TraceParseError &e) {
        EXPECT_EQ(e.error().section, "CSwitch");
        EXPECT_EQ(e.error().record, 11u);
        EXPECT_NE(e.error().reason.find("after switch-in time"),
                  std::string::npos);
    }
}

TEST(EtlDiagnostics, WriteRejectsUnsortedCSwitchesByRecordIndex)
{
    // The silent-corruption bug this PR fixes: an unsorted stream
    // used to delta-encode through unsigned underflow and produce a
    // garbage file that read back "successfully".
    TraceBundle bundle = corpusBundle();
    std::swap(bundle.cswitches[3], bundle.cswitches[4]);
    std::ostringstream out;
    try {
        writeEtl(bundle, out);
        FAIL() << "expected TraceParseError";
    } catch (const TraceParseError &e) {
        EXPECT_EQ(e.error().section, "CSwitch");
        EXPECT_EQ(e.error().record, 4u);
        EXPECT_NE(e.error().reason.find("stream not sorted"),
                  std::string::npos);
    }
}

TEST(EtlDiagnostics, WriteRejectsGpuQueuedAfterStart)
{
    TraceBundle bundle = corpusBundle();
    bundle.gpuPackets[2].queued = bundle.gpuPackets[2].start + 1;
    std::ostringstream out;
    try {
        writeEtl(bundle, out);
        FAIL() << "expected TraceParseError";
    } catch (const TraceParseError &e) {
        EXPECT_EQ(e.error().section, "GpuPackets");
        EXPECT_EQ(e.error().record, 2u);
        EXPECT_NE(e.error().reason.find("queued"),
                  std::string::npos);
    }
}

TEST(EtlDiagnostics, WriteRejectsGpuFinishBeforeStart)
{
    TraceBundle bundle = corpusBundle();
    bundle.gpuPackets[5].finish = bundle.gpuPackets[5].start - 1;
    std::ostringstream out;
    try {
        writeEtl(bundle, out);
        FAIL() << "expected TraceParseError";
    } catch (const TraceParseError &e) {
        EXPECT_EQ(e.error().section, "GpuPackets");
        EXPECT_EQ(e.error().record, 5u);
        EXPECT_NE(e.error().reason.find("finish"),
                  std::string::npos);
    }
}

// ---------------------------------------------------------------------
// Round-trip properties on clean input.
// ---------------------------------------------------------------------

TEST(RoundTrip, CleanCpuCsvParsesIdenticallyInBothModes)
{
    std::string text = cpuCsvText();
    for (ParseMode mode : {ParseMode::Strict, ParseMode::Lenient}) {
        TraceBundle bundle;
        IngestReport report = ingestCpu(text, mode, &bundle);
        EXPECT_TRUE(report.ok());
        EXPECT_EQ(report.recordsParsed,
                  corpusBundle().cswitches.size());
        EXPECT_EQ(report.recordsSkipped, 0u);
        std::ostringstream rewritten;
        writeCpuUsageCsv(bundle, rewritten);
        EXPECT_EQ(rewritten.str(), text);
    }
}

TEST(RoundTrip, CleanGpuCsvParsesIdenticallyInBothModes)
{
    std::string text = gpuCsvText();
    for (ParseMode mode : {ParseMode::Strict, ParseMode::Lenient}) {
        TraceBundle bundle;
        IngestReport report = ingestGpu(text, mode, &bundle);
        EXPECT_TRUE(report.ok());
        EXPECT_EQ(report.recordsParsed,
                  corpusBundle().gpuPackets.size());
        std::ostringstream rewritten;
        writeGpuUtilCsv(bundle, rewritten);
        EXPECT_EQ(rewritten.str(), text);
    }
}

TEST(RoundTrip, CleanEtlReencodesByteIdenticallyInBothModes)
{
    std::string bytes = etlBytes();
    for (ParseMode mode : {ParseMode::Strict, ParseMode::Lenient}) {
        TraceBundle bundle;
        IngestReport report = ingestEtl(bytes, mode, &bundle);
        EXPECT_TRUE(report.ok());
        EXPECT_FALSE(report.salvaged);
        std::ostringstream rewritten;
        writeEtl(bundle, rewritten);
        EXPECT_EQ(rewritten.str(), bytes);
    }
}

TEST(CorruptionCorpus, JunkReadyTimeMutantsExerciseClampAndReject)
{
    // Every JunkReadyTime mutant must land on the Ready Time field:
    // even values plant an inverted time (clamped in lenient mode,
    // rejected in strict), odd values plant non-numeric junk (the
    // row is dropped in lenient mode).
    FaultInjector injector(cpuCsvText(), 0xfeedf00dull, true);
    unsigned seen = 0;
    for (std::size_t i = 0; i < 400 && seen < 8; ++i) {
        Mutation m = injector.mutationFor(i);
        if (m.kind != Mutation::Kind::JunkReadyTime)
            continue;
        ++seen;
        SCOPED_TRACE(m.describe());
        std::string mutant = injector.mutant(i);

        IngestReport strict = ingestCpu(mutant);
        ASSERT_FALSE(strict.errors.empty());
        EXPECT_EQ(strict.errors[0].field, "Ready Time (ns)");

        IngestReport lenient =
            ingestCpu(mutant, ParseMode::Lenient);
        if (m.value & 1) {
            EXPECT_EQ(lenient.recordsSkipped, 1u);
            EXPECT_EQ(lenient.recordsClamped, 0u);
        } else {
            EXPECT_TRUE(lenient.ok());
            EXPECT_EQ(lenient.recordsClamped, 1u);
            EXPECT_EQ(lenient.recordsSkipped, 0u);
        }
    }
    EXPECT_GT(seen, 0u);
}

TEST(RoundTrip, MutantsAreDeterministic)
{
    FaultInjector a(etlBytes(), 42, false);
    FaultInjector b(etlBytes(), 42, false);
    for (std::size_t i = 0; i < 32; ++i)
        EXPECT_EQ(a.mutant(i), b.mutant(i)) << "index " << i;
    // A different seed perturbs at least some of the family.
    FaultInjector c(etlBytes(), 43, false);
    unsigned differing = 0;
    for (std::size_t i = 0; i < 32; ++i)
        differing += a.mutant(i) != c.mutant(i);
    EXPECT_GT(differing, 0u);
}

// ---------------------------------------------------------------------
// The .etlc block-anatomy mutation family.
// ---------------------------------------------------------------------

TEST(EtlcCorpus, RotationCoversEveryBlockAnatomyKind)
{
    FaultInjector injector(etlcBytes(), 7, TraceFormat::Etlc);
    bool seen[static_cast<std::size_t>(Mutation::Kind::kCount)] = {};
    for (std::size_t i = 0; i < 64; ++i)
        seen[static_cast<std::size_t>(
            injector.mutationFor(i).kind)] = true;
    for (Mutation::Kind kind :
         {Mutation::Kind::FlipBlockCrc,
          Mutation::Kind::TruncateFinalBlock,
          Mutation::Kind::InflateBlockLength,
          Mutation::Kind::VarintOverrun, Mutation::Kind::Truncate,
          Mutation::Kind::BitFlip})
        EXPECT_TRUE(seen[static_cast<std::size_t>(kind)])
            << "kind " << static_cast<unsigned>(kind)
            << " missing from the Etlc rotation";
    // The CSV-aware kinds must NOT appear against binary blocks.
    EXPECT_FALSE(
        seen[static_cast<std::size_t>(Mutation::Kind::BreakQuote)]);
}

TEST(EtlcCorpus, TextRotationIsUnchangedByTheNewKinds)
{
    // Adding the block-anatomy kinds must not renumber the Text
    // rotation: mutant streams are part of the corpus contract
    // (failures reproduce across revisions by index).
    FaultInjector byFlag(cpuCsvText(), 99, true);
    FaultInjector byFormat(cpuCsvText(), 99, TraceFormat::Text);
    for (std::size_t i = 0; i < 48; ++i) {
        EXPECT_EQ(byFlag.mutationFor(i).kind,
                  byFormat.mutationFor(i).kind);
        EXPECT_EQ(byFlag.mutant(i), byFormat.mutant(i));
        EXPECT_LT(static_cast<std::size_t>(
                      byFlag.mutationFor(i).kind),
                  static_cast<std::size_t>(
                      Mutation::Kind::FlipBlockCrc));
    }
}

TEST(EtlcCorpus, BlockMutationsActuallyChangeTheBytes)
{
    std::string bytes = etlcBytes();
    ASSERT_FALSE(etlcScanBlocks(io::ByteSpan(bytes)).empty());
    for (Mutation::Kind kind :
         {Mutation::Kind::FlipBlockCrc,
          Mutation::Kind::TruncateFinalBlock,
          Mutation::Kind::InflateBlockLength,
          Mutation::Kind::VarintOverrun}) {
        Mutation m;
        m.kind = kind;
        m.pos = 3;
        m.length = 4;
        m.value = 5;
        std::string mutated = FaultInjector::apply(bytes, m, 11);
        EXPECT_NE(mutated, bytes)
            << "no-op mutation " << m.describe();
    }
    // ... but degrade to no-ops on bytes without .etlc framing, so
    // the rotation is safe on arbitrary inputs.
    Mutation m;
    m.kind = Mutation::Kind::FlipBlockCrc;
    EXPECT_EQ(FaultInjector::apply("plain text", m, 0),
              "plain text");
}

TEST(EtlcCorpus, EtlcMutantsAreDeterministic)
{
    FaultInjector a(etlcBytes(), 42, TraceFormat::Etlc);
    FaultInjector b(etlcBytes(), 42, TraceFormat::Etlc);
    for (std::size_t i = 0; i < 32; ++i)
        EXPECT_EQ(a.mutant(i), b.mutant(i)) << "index " << i;
}

} // namespace

/**
 * @file
 * One trace-open path behind every entry point.
 *
 * The resident SessionCache (every CLI and served analysis request,
 * through analysis::Service) and openSession (its cold open) both
 * open traces through trace::decodeTraceFile. Contract under test,
 * for each of the three formats (.etl v3, .etlc, CPU-Usage .csv): on
 * a clean trace and on a lenient corrupt-corpus mutant the two see
 * the same bundle and the same ingest report, and in strict mode a
 * corrupt mutant makes both raise the same first TraceParseError.
 */

#include <gtest/gtest.h>

#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>
#include <string>

#include "analysis/index_cache.hh"
#include "analysis/session_cache.hh"
#include "support/corrupt.hh"
#include "trace/csv.hh"
#include "trace/etl.hh"
#include "trace/etlc.hh"
#include "trace/filter.hh"
#include "trace/ingest.hh"

namespace {

using namespace deskpar;

/** A sorted bundle touching every event stream. */
trace::TraceBundle
sampleBundle()
{
    trace::TraceBundle bundle;
    bundle.startTime = 1000;
    bundle.stopTime = 1000 + 100 * 3000;
    bundle.numLogicalCpus = 8;
    bundle.processNames[0] = "Idle";
    for (trace::Pid pid = 100; pid < 106; ++pid)
        bundle.processNames[pid] = "app-" + std::to_string(pid);
    for (unsigned i = 0; i < 3000; ++i) {
        trace::CSwitchEvent cs;
        cs.timestamp = 1000 + 100 * i;
        cs.cpu = i % 8;
        cs.oldPid = i % 2 ? 100 + i % 6 : 0;
        cs.oldTid = cs.oldPid * 10 + 1;
        cs.newPid = i % 2 ? 0 : 100 + (i / 2) % 6;
        cs.newTid = cs.newPid * 10 + 1;
        cs.readyTime = cs.timestamp - i % 13;
        bundle.cswitches.push_back(cs);
    }
    for (unsigned i = 0; i < 400; ++i) {
        trace::GpuPacketEvent gp;
        gp.queued = 2000 + 700 * i;
        gp.start = gp.queued + i % 5;
        gp.finish = gp.start + 300 + i % 11;
        gp.pid = 100 + i % 6;
        gp.engine = static_cast<trace::GpuEngineId>(i % 4);
        gp.packetId = i;
        gp.queueSlot = i % 3;
        bundle.gpuPackets.push_back(gp);
    }
    for (unsigned i = 0; i < 60; ++i) {
        trace::FrameEvent fr;
        fr.timestamp = 5000 + 4000 * i;
        fr.pid = 101;
        fr.frameId = i;
        fr.synthesized = i % 7 == 0;
        bundle.frames.push_back(fr);
    }
    trace::MarkerEvent mk;
    mk.timestamp = 9000;
    mk.label = "steady";
    bundle.markers.push_back(mk);
    return bundle;
}

/** Every field of @p bundle as text, for whole-bundle equality. */
std::string
fingerprint(const trace::TraceBundle &b)
{
    std::ostringstream out;
    out << b.startTime << ' ' << b.stopTime << ' ' << b.numLogicalCpus
        << '\n';
    for (const auto &[pid, name] : b.processNames)
        out << "n " << pid << ' ' << name << '\n';
    for (const auto &e : b.cswitches)
        out << "c " << e.timestamp << ' ' << e.cpu << ' ' << e.oldPid
            << ' ' << e.oldTid << ' ' << e.newPid << ' ' << e.newTid
            << ' ' << e.readyTime << '\n';
    for (const auto &e : b.gpuPackets)
        out << "g " << e.queued << ' ' << e.start << ' ' << e.finish
            << ' ' << e.pid << ' ' << static_cast<int>(e.engine) << ' '
            << e.packetId << ' ' << e.queueSlot << '\n';
    for (const auto &e : b.frames)
        out << "f " << e.timestamp << ' ' << e.pid << ' ' << e.frameId
            << ' ' << e.synthesized << '\n';
    for (const auto &e : b.threadEvents)
        out << "t " << e.timestamp << ' ' << e.pid << ' ' << e.tid
            << ' ' << e.created << ' ' << e.name << '\n';
    for (const auto &e : b.processEvents)
        out << "p " << e.timestamp << ' ' << e.pid << ' ' << e.created
            << ' ' << e.name << '\n';
    for (const auto &e : b.markers)
        out << "m " << e.timestamp << ' ' << e.label << '\n';
    return out.str();
}

/** Counters and every stored diagnostic of @p r as text. */
std::string
fingerprint(const trace::IngestReport &r)
{
    std::ostringstream out;
    out << r.source << ' ' << r.summary() << ' ' << r.recordsParsed
        << ' ' << r.recordsSkipped << ' ' << r.errorCount << ' '
        << r.recordsClamped << ' ' << r.salvaged << '\n';
    for (const trace::ParseError &e : r.errors)
        out << "e " << e.str() << '\n';
    for (const trace::ParseError &e : r.repairs)
        out << "r " << e.str() << '\n';
    return out.str();
}

/** One trace format: its file suffix, encoder and mutation rotation. */
struct Format
{
    const char *suffix;
    trace::TraceFormat corruption;
    std::function<std::string(const trace::TraceBundle &)> encode;
};

const Format kFormats[] = {
    {".etl", trace::TraceFormat::Binary,
     [](const trace::TraceBundle &b) {
         std::ostringstream out;
         trace::writeEtl(b, out);
         return out.str();
     }},
    {".etlc", trace::TraceFormat::Etlc,
     [](const trace::TraceBundle &b) {
         std::ostringstream out;
         trace::writeEtlc(b, out);
         return out.str();
     }},
    {".csv", trace::TraceFormat::Text,
     [](const trace::TraceBundle &b) {
         std::ostringstream out;
         trace::writeCpuUsageCsv(b, out);
         return out.str();
     }},
};

std::string
writeTrace(const std::string &stem, const Format &format,
           const std::string &bytes)
{
    std::string path = ::testing::TempDir() + "/deskpar_open_" + stem +
                       format.suffix;
    std::ofstream(path, std::ios::binary) << bytes;
    std::filesystem::remove(analysis::indexCachePath(path));
    return path;
}

/**
 * The first corpus mutant of @p format whose decode in @p mode is
 * defective; in lenient mode it must also keep application pids so
 * replay has something to analyze.
 */
std::string
defectiveMutant(const Format &format, trace::ParseMode mode)
{
    trace::FaultInjector injector(format.encode(sampleBundle()),
                                  0x0be11, format.corruption);
    std::string probe = writeTrace(
        mode == trace::ParseMode::Lenient ? "probe_lenient"
                                          : "probe_strict",
        format, "");
    trace::ParseOptions options;
    options.mode = mode;
    for (std::size_t i = 0; i < 400; ++i) {
        std::string bytes = injector.mutant(i);
        std::ofstream(probe, std::ios::binary) << bytes;
        trace::DecodedTrace decoded =
            trace::decodeTraceFile(probe, options, "test");
        if (decoded.report.ok())
            continue;
        if (mode == trace::ParseMode::Lenient &&
            trace::allApplicationPids(decoded.bundle).empty())
            continue;
        return bytes;
    }
    ADD_FAILURE() << format.suffix << ": no defective mutant";
    return "";
}

analysis::OpenResult
coldOpen(const std::string &path, trace::ParseMode mode)
{
    analysis::OpenOptions options;
    options.parse.mode = mode;
    options.useCache = false;
    options.refreshCache = false;
    return analysis::openSession(path, options);
}

/** acquire and openSession agree on @p path in @p mode. */
void
expectSameOpen(const std::string &path, trace::ParseMode mode)
{
    analysis::SessionCache cache;
    analysis::SessionCache::Lease lease = cache.acquire(path, mode);
    analysis::OpenResult opened = coldOpen(path, mode);

    EXPECT_EQ(fingerprint(lease.session->bundle()),
              fingerprint(opened.session->bundle()));
    EXPECT_EQ(fingerprint(*lease.report), fingerprint(opened.report));

    auto size = std::filesystem::file_size(path);
    EXPECT_EQ(lease.ingest.bytes, size);
    EXPECT_EQ(opened.ingest.bytes, size);
}

TEST(OpenPath, CleanTracesAgreeAcrossEntryPoints)
{
    for (const Format &format : kFormats) {
        SCOPED_TRACE(format.suffix);
        std::string path = writeTrace(
            "clean", format, format.encode(sampleBundle()));
        expectSameOpen(path, trace::ParseMode::Strict);
        analysis::OpenResult opened =
            coldOpen(path, trace::ParseMode::Strict);
        EXPECT_TRUE(opened.report.ok()) << opened.report.summary();
        EXPECT_EQ(opened.session->bundle().cswitches.size(),
                  sampleBundle().cswitches.size());
    }
}

TEST(OpenPath, LenientMutantsAgreeAcrossEntryPoints)
{
    for (const Format &format : kFormats) {
        SCOPED_TRACE(format.suffix);
        std::string path = writeTrace(
            "lenient", format,
            defectiveMutant(format, trace::ParseMode::Lenient));
        expectSameOpen(path, trace::ParseMode::Lenient);
        EXPECT_FALSE(
            coldOpen(path, trace::ParseMode::Lenient).report.ok());
    }
}

TEST(OpenPath, StrictFailuresRaiseTheSameFirstError)
{
    for (const Format &format : kFormats) {
        SCOPED_TRACE(format.suffix);
        std::string path = writeTrace(
            "strict", format,
            defectiveMutant(format, trace::ParseMode::Strict));

        analysis::OpenResult opened =
            coldOpen(path, trace::ParseMode::Strict);
        ASSERT_FALSE(opened.report.errors.empty());
        std::string first = opened.report.errors.front().str();

        analysis::SessionCache cache;
        try {
            cache.acquire(path, trace::ParseMode::Strict);
            ADD_FAILURE() << "acquire accepted a corrupt trace";
        } catch (const trace::TraceParseError &err) {
            EXPECT_EQ(err.error().str(), first);
        }
    }
}

} // namespace

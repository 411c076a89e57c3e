/**
 * @file
 * The .etlc block-compressed columnar container (trace/etlc.hh).
 *
 * Contract under test: a clean bundle round-trips losslessly and
 * byte-identically at every decode thread count; the in-repo LZ
 * compressor inverts exactly and never reads or writes out of range;
 * block-level corruption is rejected with a structured error in
 * strict mode and skipped — with exact accounting — in lenient mode;
 * and whatever a lenient decode salvages is always re-encodable.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <sstream>
#include <string>
#include <vector>

#include "obs/obs.hh"
#include "support/corrupt.hh"
#include "support/etlc_scan.hh"
#include "trace/container.hh"
#include "trace/etl.hh"
#include "trace/etlc.hh"
#include "trace/session.hh"

namespace {

using namespace deskpar::trace;
namespace obs = deskpar::obs;

/**
 * A deterministic bundle large enough that the CSwitch section spans
 * several ~64 KiB blocks (the parallel decode and per-block recovery
 * paths only exist above one block).
 */
TraceBundle
bigBundle(std::size_t cswitches = 20000)
{
    TraceBundle bundle;
    bundle.startTime = 1000;
    bundle.stopTime = 1000 + 100 * cswitches + 100000;
    bundle.numLogicalCpus = 8;
    bundle.processNames[0] = "Idle";
    for (Pid pid = 1000; pid < 1008; ++pid)
        bundle.processNames[pid] = "app-" + std::to_string(pid - 1000);

    std::uint64_t state = 0x9e3779b97f4a7c15ull;
    auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (std::size_t i = 0; i < cswitches; ++i) {
        CSwitchEvent cs;
        cs.timestamp = 1000 + 100 * i + next() % 50;
        cs.cpu = static_cast<unsigned>(next() % 8);
        cs.oldPid = i % 2 ? 1000 + Pid(next() % 8) : 0;
        cs.oldTid = cs.oldPid * 10 + 1;
        cs.newPid = i % 2 ? 0 : 1000 + Pid(next() % 8);
        cs.newTid = cs.newPid * 10 + 1;
        cs.readyTime = cs.timestamp - next() % 1000;
        bundle.cswitches.push_back(cs);
    }
    for (std::size_t i = 0; i < 400; ++i) {
        GpuPacketEvent gp;
        gp.start = 2000 + 500 * i;
        gp.queued = gp.start - 40 - i % 30;
        gp.finish = gp.start + 90 + i % 200;
        gp.pid = 1000 + Pid(i % 8);
        gp.engine = static_cast<GpuEngineId>(i % kNumGpuEngines);
        gp.packetId = static_cast<std::uint32_t>(i);
        gp.queueSlot = static_cast<std::uint8_t>(i % 4);
        bundle.gpuPackets.push_back(gp);
    }
    for (std::size_t i = 0; i < 100; ++i) {
        FrameEvent fr;
        fr.timestamp = 3000 + 1000 * i;
        fr.pid = 1000;
        fr.frameId = static_cast<std::uint32_t>(i);
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
etlcBytes(const TraceBundle &bundle)
{
    std::ostringstream out;
    writeEtlc(bundle, out);
    return out.str();
}

/** Canonical v1 image — the bundle-equality witness in these tests. */
std::string
canonical(const TraceBundle &bundle)
{
    return etlcBytes(bundle);
}

TraceBundle
decode(const std::string &bytes, ParseMode mode, unsigned threads,
       IngestReport &report)
{
    ParseOptions options;
    options.mode = mode;
    options.threads = threads;
    options.source = "test.etlc";
    return decodeEtlc(io::ByteSpan(bytes), options, report);
}

// ---------------------------------------------------------------------
// The building blocks: CRC32C and the LZ compressor.
// ---------------------------------------------------------------------

TEST(EtlcCompressor, Crc32cMatchesTheCheckValue)
{
    // The canonical CRC-32C check vector (RFC 3720 appendix B.4).
    EXPECT_EQ(crc32c(io::ByteSpan("123456789")), 0xE3069283u);
    EXPECT_EQ(crc32c(io::ByteSpan("")), 0u);
}

TEST(EtlcCompressor, RoundTripsRepetitiveRandomAndTinyInputs)
{
    std::vector<std::string> inputs;
    inputs.emplace_back();
    inputs.emplace_back("a");
    inputs.emplace_back("abcd");
    inputs.emplace_back(std::string(70000, 'x'));
    std::string cycle;
    for (int i = 0; i < 9000; ++i)
        cycle += "pattern-" + std::to_string(i % 7) + ";";
    inputs.push_back(cycle);
    std::string random;
    std::uint64_t state = 12345;
    for (int i = 0; i < 60000; ++i) {
        state = state * 6364136223846793005ull + 1442695040888963407ull;
        random.push_back(static_cast<char>(state >> 33));
    }
    inputs.push_back(random);

    for (const std::string &raw : inputs) {
        SCOPED_TRACE("input size " + std::to_string(raw.size()));
        std::string compressed = etlcCompress(io::ByteSpan(raw));
        std::string out, reason;
        ASSERT_TRUE(etlcDecompress(io::ByteSpan(compressed),
                                   raw.size(), out, reason))
            << reason;
        EXPECT_EQ(out, raw);
    }
}

TEST(EtlcCompressor, CompressesRepetitiveDataWell)
{
    std::string raw(60000, 'x');
    std::string compressed = etlcCompress(io::ByteSpan(raw));
    EXPECT_LT(compressed.size(), raw.size() / 20);
}

TEST(EtlcCompressor, EveryTruncationOfAStreamFailsCleanly)
{
    std::string raw;
    for (int i = 0; i < 500; ++i)
        raw += "block-" + std::to_string(i % 13) + "!";
    std::string compressed = etlcCompress(io::ByteSpan(raw));
    for (std::size_t cut = 0; cut < compressed.size(); ++cut) {
        std::string out, reason;
        bool ok = etlcDecompress(
            io::ByteSpan(compressed.data(), cut), raw.size(), out,
            reason);
        // A prefix either fails with a reason or stops early; the
        // caller's declared-length check catches the short case. The
        // one benign exception: cutting only the zero-literal
        // terminator token still yields the full, correct output
        // (the frame CRC rejects such truncations upstream).
        if (ok) {
            EXPECT_LE(out.size(), raw.size());
            if (out.size() == raw.size()) {
                EXPECT_EQ(out, raw);
            }
        } else {
            EXPECT_FALSE(reason.empty());
        }
    }
}

TEST(EtlcCompressor, GarbageBytesNeverEscapeTheBoundsChecks)
{
    std::uint64_t state = 777;
    for (int trial = 0; trial < 200; ++trial) {
        std::string junk;
        for (int i = 0; i < 300; ++i) {
            state = state * 2862933555777941757ull + 3037000493ull;
            junk.push_back(static_cast<char>(state >> 56));
        }
        std::string out, reason;
        // Success (junk happened to be a valid stream) or a clean
        // failure are both fine; crashes and overreads are not.
        etlcDecompress(io::ByteSpan(junk), 4096, out, reason);
        EXPECT_LE(out.size(), 4096u);
    }
}

// ---------------------------------------------------------------------
// Clean round trips.
// ---------------------------------------------------------------------

TEST(EtlcRoundTrip, MagicIsRecognized)
{
    std::string bytes = etlcBytes(bigBundle(100));
    EXPECT_TRUE(isEtlcData(io::ByteSpan(bytes)));
    std::string etl3;
    {
        std::ostringstream out;
        writeEtl(bigBundle(100), out);
        etl3 = out.str();
    }
    EXPECT_FALSE(isEtlcData(io::ByteSpan(etl3)));
    EXPECT_FALSE(isEtlcData(io::ByteSpan("short")));
}

TEST(EtlcRoundTrip, IsLosslessAndThreadCountInvariant)
{
    TraceBundle original = bigBundle();
    std::string bytes = etlcBytes(original);
    ASSERT_GE(etlcScanBlocks(io::ByteSpan(bytes)).size(), 4u)
        << "bundle too small to exercise multi-block decode";

    std::string want = canonical(original);
    for (ParseMode mode : {ParseMode::Strict, ParseMode::Lenient}) {
        for (unsigned threads : {1u, 2u, 7u}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            IngestReport report;
            TraceBundle decoded = decode(bytes, mode, threads, report);
            EXPECT_TRUE(report.ok()) << report.summary();
            EXPECT_EQ(report.recordsParsed,
                      original.cswitches.size() +
                          original.gpuPackets.size() +
                          original.frames.size() +
                          original.threadEvents.size() +
                          original.processEvents.size() +
                          original.markers.size() +
                          original.processNames.size());
            EXPECT_EQ(report.recordsSkipped, 0u);
            EXPECT_EQ(canonical(decoded), want);
            EXPECT_EQ(decoded.startTime, original.startTime);
            EXPECT_EQ(decoded.stopTime, original.stopTime);
            EXPECT_EQ(decoded.numLogicalCpus,
                      original.numLogicalCpus);
        }
    }
}

TEST(EtlcRoundTrip, ZeroEventBundleRoundTrips)
{
    TraceBundle empty;
    empty.startTime = 5;
    empty.stopTime = 10;
    empty.numLogicalCpus = 4;
    std::string bytes = etlcBytes(empty);
    for (unsigned threads : {1u, 7u}) {
        IngestReport report;
        TraceBundle decoded =
            decode(bytes, ParseMode::Strict, threads, report);
        EXPECT_TRUE(report.ok()) << report.summary();
        EXPECT_EQ(decoded.cswitches.size(), 0u);
        EXPECT_EQ(decoded.numLogicalCpus, 4u);
        EXPECT_EQ(canonical(decoded), bytes);
    }
}

TEST(EtlcRoundTrip, HeaderlessCpuCountRoundTrips)
{
    // A hand-built bundle can carry numLogicalCpus = 0 ("headerless");
    // the container stores it as is, and the reader settles it the
    // way every decoder does: the largest CPU id the stream used + 1.
    TraceBundle bundle = bigBundle(500);
    bundle.numLogicalCpus = 0;
    std::string bytes = etlcBytes(bundle);
    IngestReport report;
    TraceBundle decoded =
        decode(bytes, ParseMode::Strict, 2, report);
    EXPECT_TRUE(report.ok()) << report.summary();
    CpuId top = 0;
    for (const CSwitchEvent &e : bundle.cswitches)
        top = std::max(top, e.cpu);
    EXPECT_EQ(decoded.numLogicalCpus, top + 1);
    bundle.numLogicalCpus = top + 1;
    EXPECT_EQ(canonical(decoded), canonical(bundle));
}

TEST(EtlcRoundTrip, WriterRejectsDisorderedCSwitches)
{
    TraceBundle bundle = bigBundle(100);
    std::swap(bundle.cswitches[3], bundle.cswitches[4]);
    std::ostringstream out;
    try {
        writeEtlc(bundle, out);
        FAIL() << "expected TraceParseError";
    } catch (const TraceParseError &e) {
        EXPECT_EQ(e.error().section, "CSwitch");
        EXPECT_NE(e.error().reason.find("stream not sorted"),
                  std::string::npos);
    }
}

TEST(EtlcRoundTrip, WriterRejectsInvertedReadyTime)
{
    TraceBundle bundle = bigBundle(100);
    bundle.cswitches[7].readyTime =
        bundle.cswitches[7].timestamp + 1;
    std::ostringstream out;
    EXPECT_THROW(writeEtlc(bundle, out), TraceParseError);
}

TEST(EtlcRoundTrip, CompressesBetterThanEtlV3)
{
    TraceBundle bundle = bigBundle();
    std::ostringstream v3;
    writeEtl(bundle, v3);
    std::string etlc = etlcBytes(bundle);
    // The suite-corpus ratio floor lives in bench_etlc; here we only
    // pin that the columnar container never loses to v3 on a
    // realistic stream.
    EXPECT_LT(etlc.size(), v3.str().size());
}

// ---------------------------------------------------------------------
// Block-level corruption: strict rejects, lenient skips and accounts.
// ---------------------------------------------------------------------

/** The CSwitch blocks of @p bytes (there must be several). */
std::vector<EtlcBlockRef>
cswitchBlocks(const std::string &bytes)
{
    std::vector<EtlcBlockRef> blocks;
    for (const EtlcBlockRef &ref :
         etlcScanBlocks(io::ByteSpan(bytes))) {
        if (ref.section == 2) // CSwitch tag
            blocks.push_back(ref);
    }
    return blocks;
}

TEST(EtlcCorruption, FlippedChecksumRejectsStrictSkipsLenient)
{
    TraceBundle original = bigBundle();
    std::string bytes = etlcBytes(original);
    std::vector<EtlcBlockRef> blocks = cswitchBlocks(bytes);
    ASSERT_GE(blocks.size(), 3u);
    const EtlcBlockRef &victim = blocks[1];
    bytes[victim.crcPos] ^= '\x01';

    IngestReport strict;
    decode(bytes, ParseMode::Strict, 1, strict);
    EXPECT_FALSE(strict.ok());
    ASSERT_FALSE(strict.errors.empty());
    EXPECT_EQ(strict.errors[0].section, "CSwitch");
    EXPECT_NE(strict.errors[0].reason.find("block checksum mismatch"),
              std::string::npos);

    IngestReport lenient;
    TraceBundle salvaged =
        decode(bytes, ParseMode::Lenient, 1, lenient);
    EXPECT_EQ(lenient.errorCount, 1u);
    EXPECT_EQ(lenient.recordsSkipped, victim.records);
    EXPECT_EQ(salvaged.cswitches.size(),
              original.cswitches.size() - victim.records);
    // Blocks after the defect still decode: the last event survives.
    EXPECT_EQ(salvaged.cswitches.back().timestamp,
              original.cswitches.back().timestamp);
}

TEST(EtlcCorruption, TruncatedFinalBlockYieldsAStructuredError)
{
    std::string bytes = etlcBytes(bigBundle());
    auto blocks = etlcScanBlocks(io::ByteSpan(bytes));
    ASSERT_FALSE(blocks.empty());
    const EtlcBlockRef &last = blocks.back();
    bytes.resize(last.dataPos + last.dataLen / 2);

    IngestReport report;
    decode(bytes, ParseMode::Strict, 1, report);
    EXPECT_FALSE(report.ok());
    ASSERT_FALSE(report.errors.empty());
    EXPECT_FALSE(report.errors[0].reason.empty());
}

TEST(EtlcCorruption, InflatedLengthPastTheCapIsCaughtBeforeAllocation)
{
    std::string bytes = etlcBytes(bigBundle());
    std::vector<EtlcBlockRef> blocks = cswitchBlocks(bytes);
    ASSERT_FALSE(blocks.empty());
    Mutation m;
    m.kind = Mutation::Kind::InflateBlockLength;
    m.pos = 1; // second CSwitch block via the scan inside apply()
    m.value = 1; // odd: past the 4 MiB cap
    std::string mutated = FaultInjector::apply(bytes, m, 0);

    IngestReport report;
    decode(mutated, ParseMode::Strict, 1, report);
    EXPECT_FALSE(report.ok());
    ASSERT_FALSE(report.errors.empty());
    EXPECT_NE(report.errors[0].reason.find("exceeds the"),
              std::string::npos);
}

TEST(EtlcCorruption, PlausibleWrongLengthIsCrossChecked)
{
    std::string bytes = etlcBytes(bigBundle());
    Mutation m;
    m.kind = Mutation::Kind::InflateBlockLength;
    m.pos = 0;
    m.value = 2; // even: plausible but wrong
    std::string mutated = FaultInjector::apply(bytes, m, 0);

    IngestReport report;
    decode(mutated, ParseMode::Strict, 1, report);
    EXPECT_FALSE(report.ok());
}

TEST(EtlcCorruption, SerialAndParallelAgreeOnCorruptInputs)
{
    // The PR 4 discipline extended to the failure paths: identical
    // bundles AND identical reports at every thread count, for every
    // mutation family.
    std::string bytes = etlcBytes(bigBundle(8000));
    FaultInjector injector(bytes, 0xc0ffee123ull, TraceFormat::Etlc);
    for (std::size_t i = 0; i < 40; ++i) {
        std::string mutant = injector.mutant(i);
        for (ParseMode mode :
             {ParseMode::Strict, ParseMode::Lenient}) {
            SCOPED_TRACE("mutant " + std::to_string(i) + " (" +
                         injector.mutationFor(i).describe() + "), " +
                         (mode == ParseMode::Strict ? "strict"
                                                    : "lenient"));
            IngestReport serial, parallel;
            TraceBundle a = decode(mutant, mode, 1, serial);
            TraceBundle b = decode(mutant, mode, 7, parallel);

            EXPECT_EQ(serial.recordsParsed, parallel.recordsParsed);
            EXPECT_EQ(serial.recordsSkipped,
                      parallel.recordsSkipped);
            EXPECT_EQ(serial.errorCount, parallel.errorCount);
            ASSERT_EQ(serial.errors.size(), parallel.errors.size());
            for (std::size_t e = 0; e < serial.errors.size(); ++e)
                EXPECT_EQ(serial.errors[e].str(),
                          parallel.errors[e].str());

            EXPECT_EQ(a.cswitches.size(), b.cswitches.size());
            EXPECT_EQ(a.gpuPackets.size(), b.gpuPackets.size());
            EXPECT_EQ(a.frames.size(), b.frames.size());
            EXPECT_EQ(a.processNames, b.processNames);
        }
    }
}

/**
 * A CRC-valid .etlc whose CSwitch section is @p blocks blocks, each
 * declaring the most records its raw length allows (one per byte)
 * over 1 MiB of zeros that LZ-compresses to a few KiB: declared
 * totals hundreds of times larger than the file.
 */
std::string
inflatedTotalsImage(unsigned blocks)
{
    const std::size_t rawLen = std::size_t(1) << 20;
    std::string comp = etlcCompress(std::string(rawLen, '\0'));
    std::uint32_t crc = crc32c(comp);
    std::string payload;
    putVarint(payload, std::uint64_t(blocks) * rawLen);
    putVarint(payload, blocks);
    for (unsigned b = 0; b < blocks; ++b) {
        putVarint(payload, rawLen); // records
        putVarint(payload, rawLen);
        putVarint(payload, comp.size());
        for (int i = 0; i < 4; ++i)
            payload.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
        payload.append(comp);
    }
    std::string bytes = etlcBytes(TraceBundle{}).substr(0, 8);
    putVarint(bytes, kEtlcVersion);
    putVarint(bytes, 0);    // startTime
    putVarint(bytes, 1000); // stopTime
    putVarint(bytes, 4);    // numLogicalCpus
    bytes.push_back('\x02'); // CSwitch
    putVarint(bytes, payload.size());
    bytes.append(payload);
    bytes.push_back('\xff'); // End
    return bytes;
}

TEST(EtlcCorruption, InflatedTotalsCannotBalloonThePresize)
{
    const unsigned kBlocks = 8;
    std::string bytes = inflatedTotalsImage(kBlocks);
    // Presizing the declared totals would take 8 Mi events (over
    // 300 MiB) for a file of well under 100 KiB.
    ASSERT_LT(bytes.size(), 100u * 1024);
    for (ParseMode mode : {ParseMode::Strict, ParseMode::Lenient}) {
        SCOPED_TRACE(mode == ParseMode::Strict ? "strict" : "lenient");
        IngestReport first;
        for (unsigned threads : {1u, 2u, 7u}) {
            SCOPED_TRACE("threads " + std::to_string(threads));
            IngestReport report;
            TraceBundle decoded;
            obs::setEnabled(true);
            obs::reset();
            ASSERT_NO_THROW(decoded = decode(bytes, mode, threads, report));
            obs::setEnabled(false);
            // The in-place path refused the presize before decoding a
            // block (its block spans never opened).
            for (const obs::SpanRecord &span : obs::collect().spans)
                EXPECT_STRNE(span.name, "ingest.etlc.block");
            EXPECT_TRUE(decoded.cswitches.empty());
            // Every block holds a clean timestamp column and nothing
            // else: the serial path rejects each one on its own.
            EXPECT_EQ(report.recordsParsed, 0u);
            EXPECT_EQ(report.recordsSkipped, kBlocks * (1ull << 20));
            EXPECT_EQ(report.errorCount,
                      mode == ParseMode::Strict ? 1u : kBlocks);
            ASSERT_FALSE(report.errors.empty());
            EXPECT_EQ(report.errors[0].section, "CSwitch");
            EXPECT_EQ(report.errors[0].record, 0u);
            EXPECT_EQ(report.errors[0].reason, "truncated varint");
            if (threads == 1) {
                first = report;
                continue;
            }
            ASSERT_EQ(report.errors.size(), first.errors.size());
            for (std::size_t e = 0; e < report.errors.size(); ++e)
                EXPECT_EQ(report.errors[e].str(),
                          first.errors[e].str());
        }
    }
}

/**
 * The ingest.etlc.serial_redecode total of one lenient decode of
 * @p bytes, or -1 when the decode did not publish the counter.
 */
std::int64_t
serialRedecodes(const std::string &bytes, unsigned threads)
{
    obs::setEnabled(true);
    obs::reset();
    IngestReport report;
    decode(bytes, ParseMode::Lenient, threads, report);
    obs::setEnabled(false);
    for (const obs::CounterTotal &counter : obs::collect().counters) {
        if (std::strcmp(counter.name, "ingest.etlc.serial_redecode") ==
            0)
            return counter.total;
    }
    return -1;
}

TEST(EtlcObservability, SerialRedecodeCountsInPlaceGiveUps)
{
    obs::setEnabled(true);
    bool recording = obs::enabled();
    obs::setEnabled(false);
    if (!recording)
        GTEST_SKIP() << "observability compiled out";

    std::string clean = etlcBytes(bigBundle());
    std::string flipped = clean;
    std::vector<EtlcBlockRef> blocks = cswitchBlocks(flipped);
    ASSERT_GE(blocks.size(), 2u);
    flipped[blocks[1].crcPos] ^= '\x01';
    for (unsigned threads : {1u, 2u, 7u}) {
        SCOPED_TRACE("threads " + std::to_string(threads));
        EXPECT_EQ(serialRedecodes(clean, threads), 0);
        EXPECT_EQ(serialRedecodes(flipped, threads), 1);
    }
}

TEST(EtlcCorruption, LenientSurvivorsAreAlwaysReencodable)
{
    std::string bytes = etlcBytes(bigBundle(6000));
    FaultInjector injector(bytes, 0xabcdef01ull, TraceFormat::Etlc);
    unsigned reencoded = 0;
    for (std::size_t i = 0; i < 60; ++i) {
        std::string mutant = injector.mutant(i);
        IngestReport report;
        TraceBundle salvaged =
            decode(mutant, ParseMode::Lenient, 2, report);
        // Whatever lenient mode kept must satisfy the writer's
        // validity checks: skipping whole blocks preserves order.
        std::ostringstream out;
        ASSERT_NO_THROW(writeEtlc(salvaged, out))
            << injector.mutationFor(i).describe();
        ++reencoded;
    }
    EXPECT_EQ(reencoded, 60u);
}

TEST(EtlcCorruption, ScanReturnsEmptyOnIrregularFraming)
{
    std::string bytes = etlcBytes(bigBundle(200));
    EXPECT_FALSE(etlcScanBlocks(io::ByteSpan(bytes)).empty());
    std::string truncated = bytes.substr(0, bytes.size() / 2);
    EXPECT_TRUE(etlcScanBlocks(io::ByteSpan(truncated)).empty());
    EXPECT_TRUE(etlcScanBlocks(io::ByteSpan("not etlc")).empty());
}

TEST(EtlcCorruption, BadMagicIsAHeaderErrorAtOffsetZero)
{
    std::string bytes = etlcBytes(bigBundle(50));
    bytes[0] ^= 0x40;
    IngestReport report;
    decode(bytes, ParseMode::Strict, 1, report);
    ASSERT_EQ(report.errors.size(), 1u);
    EXPECT_EQ(report.errors[0].section, "header");
    EXPECT_EQ(report.errors[0].offset, 0u);
    EXPECT_EQ(report.errors[0].reason, "bad magic");
}

} // namespace

#include "trace/etlc.hh"

#include <algorithm>
#include <array>
#include <atomic>
#include <cstring>
#include <fstream>
#include <unordered_map>
#include <utility>

#include "obs/obs.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "trace/etl.hh"

namespace deskpar::trace {

namespace {

const char kMagic[8] = {'D', 'P', 'E', 'T', 'L', 'C', '\x01',
                        '\x00'};

/** Section tags — same vocabulary as .etl v3. */
enum class Section : std::uint8_t {
    ProcessNames = 1,
    CSwitch = 2,
    GpuPackets = 3,
    Frames = 4,
    ThreadLife = 5,
    ProcessLife = 6,
    Markers = 7,
    End = 0xff,
};

const char *
sectionName(Section tag)
{
    switch (tag) {
      case Section::ProcessNames:
        return "ProcessNames";
      case Section::CSwitch:
        return "CSwitch";
      case Section::GpuPackets:
        return "GpuPackets";
      case Section::Frames:
        return "Frames";
      case Section::ThreadLife:
        return "ThreadLife";
      case Section::ProcessLife:
        return "ProcessLife";
      case Section::Markers:
        return "Markers";
      case Section::End:
        return "End";
    }
    return "Unknown";
}

/** Shortest match the block compressor encodes. */
constexpr std::size_t kMinMatch = 4;

void
putString(std::string &out, const std::string &s)
{
    putVarint(out, s.size());
    out.append(s);
}

/** Append one `tag, varint length, payload` section frame. */
void
putSection(std::string &out, Section tag, const std::string &payload)
{
    out.push_back(static_cast<char>(tag));
    putVarint(out, payload.size());
    out.append(payload);
}

/** Bounded no-throw varint decode (same semantics as etl.cc's). */
bool
getBounded(io::ByteSpan data, std::size_t &pos, std::size_t limit,
           std::uint64_t &value, ParseError &err)
{
    value = 0;
    unsigned shift = 0;
    std::size_t start = pos;
    while (true) {
        if (pos >= limit) {
            err.offset = pos;
            err.reason = "truncated varint";
            return false;
        }
        if (shift >= 64) {
            err.offset = start;
            err.reason = "varint overflow (more than 64 bits)";
            return false;
        }
        auto byte = static_cast<std::uint8_t>(data[pos++]);
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return true;
        shift += 7;
    }
}

/** Bounded no-throw string decode (varint length + bytes). */
bool
getBoundedString(io::ByteSpan data, std::size_t &pos,
                 std::size_t limit, std::string &s, ParseError &err)
{
    std::uint64_t len = 0;
    if (!getBounded(data, pos, limit, len, err))
        return false;
    if (len > limit - pos) {
        err.offset = pos;
        err.reason = "truncated string (length " +
                     std::to_string(len) + ", " +
                     std::to_string(limit - pos) + " bytes left)";
        return false;
    }
    s.assign(data.data() + pos, static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    return true;
}

std::string
hex32(std::uint32_t v)
{
    static const char digits[] = "0123456789abcdef";
    std::string s(8, '0');
    for (int i = 7; i >= 0; --i) {
        s[static_cast<std::size_t>(i)] = digits[v & 0xf];
        v >>= 4;
    }
    return s;
}

// --------------------------------------------------------------------
// Writer
// --------------------------------------------------------------------

/**
 * Per-block id dictionary column: varint dictionary size, the sorted
 * unique values delta-encoded, then one varint dictionary index per
 * record. Repeated pids/tids collapse to one-byte indexes, and the
 * index runs give the LZ pass long matches to chew on.
 */
void
putDictColumn(std::string &out, const std::vector<std::uint64_t> &vals)
{
    std::vector<std::uint64_t> dict(vals);
    std::sort(dict.begin(), dict.end());
    dict.erase(std::unique(dict.begin(), dict.end()), dict.end());
    putVarint(out, dict.size());
    std::uint64_t prev = 0;
    for (std::uint64_t v : dict) {
        putVarint(out, v - prev);
        prev = v;
    }
    for (std::uint64_t v : vals) {
        auto it = std::lower_bound(dict.begin(), dict.end(), v);
        putVarint(out, static_cast<std::uint64_t>(it - dict.begin()));
    }
}

/** Accumulates finished block frames of one section. */
struct BlockSink
{
    std::string payload;
    std::uint64_t blocks = 0;

    void
    flush(const std::string &raw, std::uint64_t records)
    {
        if (records == 0)
            return;
        std::string comp = etlcCompress(raw);
        bool stored = comp.size() >= raw.size();
        const std::string &bytes = stored ? raw : comp;
        putVarint(payload, records);
        putVarint(payload, raw.size());
        putVarint(payload, stored ? 0 : comp.size());
        std::uint32_t crc = crc32c(bytes);
        for (int i = 0; i < 4; ++i)
            payload.push_back(
                static_cast<char>((crc >> (8 * i)) & 0xff));
        payload.append(bytes);
        ++blocks;
    }
};

/** Assemble `varint total, varint blocks, block...` section payload. */
std::string
sectionPayload(std::uint64_t total, BlockSink &sink)
{
    std::string payload;
    putVarint(payload, total);
    putVarint(payload, sink.blocks);
    payload.append(sink.payload);
    return payload;
}

/**
 * Column buffers of one in-progress CSwitch block.
 *
 * The outgoing thread is chain-predicted: on any CPU, the thread a
 * switch preempts is almost always the thread the previous switch on
 * that CPU dispatched, so oldPid/oldTid are stored only for records
 * that break the chain (plus the first record each CPU contributes,
 * which has no in-block predecessor). The predictor state is
 * strictly block-local, which keeps parallel block decode
 * independent: a miss-index column names the exceptions and two
 * short dictionary columns carry their values.
 */
struct CSwitchCols
{
    std::string ts, wait, cpu, missGaps;
    std::vector<std::uint64_t> oldPidMiss, oldTidMiss, newPid,
        newTid;
    std::unordered_map<std::uint64_t,
                       std::pair<std::uint64_t, std::uint64_t>>
        lastNew;
    SimTime prev = 0;
    std::uint64_t n = 0;
    std::uint64_t prevMiss = 0;

    void
    add(const CSwitchEvent &e)
    {
        putVarint(ts, e.timestamp - prev);
        prev = e.timestamp;
        putVarint(wait, e.timestamp - e.readyTime);
        putVarint(cpu, e.cpu);
        auto it = lastNew.find(e.cpu);
        bool hit = it != lastNew.end() &&
                   it->second.first == e.oldPid &&
                   it->second.second == e.oldTid;
        if (!hit) {
            // First gap is the absolute index, later gaps the
            // (strictly positive) distance to the previous miss.
            putVarint(missGaps, oldPidMiss.empty()
                                    ? n
                                    : n - prevMiss);
            prevMiss = n;
            oldPidMiss.push_back(e.oldPid);
            oldTidMiss.push_back(e.oldTid);
        }
        lastNew[e.cpu] = {e.newPid, e.newTid};
        newPid.push_back(e.newPid);
        newTid.push_back(e.newTid);
        ++n;
    }

    std::size_t
    bytes() const
    {
        // Dictionary columns mostly encode as one index byte per
        // record; close enough for the ~64 KiB flush target.
        return ts.size() + wait.size() + cpu.size() +
               missGaps.size() + 2 * oldPidMiss.size() +
               2 * newPid.size();
    }

    std::string
    encode() const
    {
        std::string raw;
        raw.append(ts);
        raw.append(wait);
        raw.append(cpu);
        putVarint(raw, oldPidMiss.size());
        raw.append(missGaps);
        putDictColumn(raw, oldPidMiss);
        putDictColumn(raw, oldTidMiss);
        putDictColumn(raw, newPid);
        putDictColumn(raw, newTid);
        return raw;
    }
};

/** Column buffers of one in-progress GpuPackets block. */
struct GpuCols
{
    std::string start, queue, dur, engine, packetId, queueSlot;
    std::vector<std::uint64_t> pid;
    SimTime prev = 0;
    std::uint64_t n = 0;

    void
    add(const GpuPacketEvent &e)
    {
        putVarint(start, e.start - prev);
        prev = e.start;
        putVarint(queue, e.start - e.queued);
        putVarint(dur, e.finish - e.start);
        putVarint(engine, static_cast<std::uint8_t>(e.engine));
        putVarint(packetId, e.packetId);
        putVarint(queueSlot, e.queueSlot);
        pid.push_back(e.pid);
        ++n;
    }

    std::size_t
    bytes() const
    {
        return start.size() + queue.size() + dur.size() +
               engine.size() + packetId.size() + queueSlot.size() +
               pid.size();
    }

    std::string
    encode() const
    {
        std::string raw;
        raw.append(start);
        raw.append(queue);
        raw.append(dur);
        putDictColumn(raw, pid);
        raw.append(engine);
        raw.append(packetId);
        raw.append(queueSlot);
        return raw;
    }
};

/** Column buffers of one in-progress Frames block. */
struct FrameCols
{
    std::string ts, frameId, synthesized;
    std::vector<std::uint64_t> pid;
    SimTime prev = 0;
    std::uint64_t n = 0;

    void
    add(const FrameEvent &e)
    {
        putVarint(ts, e.timestamp - prev);
        prev = e.timestamp;
        putVarint(frameId, e.frameId);
        putVarint(synthesized, e.synthesized ? 1 : 0);
        pid.push_back(e.pid);
        ++n;
    }

    std::size_t
    bytes() const
    {
        return ts.size() + frameId.size() + synthesized.size() +
               pid.size();
    }

    std::string
    encode() const
    {
        std::string raw;
        raw.append(ts);
        putDictColumn(raw, pid);
        raw.append(frameId);
        raw.append(synthesized);
        return raw;
    }
};

/**
 * Block-chunk a record-major stream (the small string-bearing
 * sections keep the v3 record encoding, just framed into checksummed
 * compressed blocks).
 */
template <typename It, typename RecordFn>
void
putRecordBlocks(BlockSink &sink, It begin, It end, RecordFn &&record)
{
    std::string raw;
    std::uint64_t n = 0;
    for (It it = begin; it != end; ++it) {
        record(raw, *it);
        ++n;
        if (raw.size() >= kEtlcBlockBytes) {
            sink.flush(raw, n);
            raw.clear();
            n = 0;
        }
    }
    sink.flush(raw, n);
}

// --------------------------------------------------------------------
// Reader
// --------------------------------------------------------------------

/** Decoding state of one .etlc image (mirrors etl.cc's EtlReader). */
struct EtlcReader
{
    io::ByteSpan data;
    const ParseOptions &options;
    IngestReport &report;

    std::size_t pos = 0;

    std::uint64_t fileOffset(std::size_t p) const
    {
        return p + sizeof(kMagic);
    }

    ParseError
    located(ParseError err, const char *section,
            std::uint64_t record) const
    {
        err.source = report.source;
        err.section = section;
        err.record = record;
        if (err.offset != ParseError::kNoPosition)
            err.offset =
                fileOffset(static_cast<std::size_t>(err.offset));
        return err;
    }

    ParseError
    makeError(const char *section, std::uint64_t record,
              std::size_t bodyPos, std::string reason) const
    {
        ParseError err;
        err.offset = bodyPos;
        err.reason = std::move(reason);
        return located(std::move(err), section, record);
    }

    void
    note(ParseError err)
    {
        report.note(std::move(err), options.maxStoredErrors);
    }
};

/** One parsed block frame header. */
struct BlockFrame
{
    std::uint64_t records = 0;
    std::uint64_t rawLen = 0;
    std::uint64_t compLen = 0;
    std::uint32_t crc = 0;
    std::size_t dataPos = 0;
    std::size_t dataLen = 0;
};

/**
 * Read one block frame header at @p pos. Bounds and sanity checks
 * only — content defects (checksum, decompression, columns) are the
 * block decoder's job. On failure @p err holds offset + reason
 * relative to the body span.
 */
bool
readBlockFrame(io::ByteSpan data, std::size_t &pos, std::size_t limit,
               BlockFrame &f, ParseError &err)
{
    std::size_t framePos = pos;
    if (!getBounded(data, pos, limit, f.records, err) ||
        !getBounded(data, pos, limit, f.rawLen, err) ||
        !getBounded(data, pos, limit, f.compLen, err))
        return false;
    if (f.records == 0) {
        err.offset = framePos;
        err.reason = "block declares zero records";
        return false;
    }
    if (f.rawLen > kEtlcMaxBlockBytes) {
        err.offset = framePos;
        err.reason = "block uncompressed length " +
                     std::to_string(f.rawLen) + " exceeds the " +
                     std::to_string(kEtlcMaxBlockBytes) +
                     "-byte cap";
        return false;
    }
    if (f.records > f.rawLen) {
        err.offset = framePos;
        err.reason = "declared block record count " +
                     std::to_string(f.records) +
                     " exceeds the uncompressed size " +
                     std::to_string(f.rawLen);
        return false;
    }
    if (f.compLen >= f.rawLen && f.compLen != 0) {
        err.offset = framePos;
        err.reason = "compressed length " +
                     std::to_string(f.compLen) +
                     " not smaller than uncompressed length " +
                     std::to_string(f.rawLen);
        return false;
    }
    if (limit - pos < 4) {
        err.offset = pos;
        err.reason = "truncated block checksum";
        return false;
    }
    f.crc = 0;
    for (int i = 0; i < 4; ++i)
        f.crc |= static_cast<std::uint32_t>(
                     static_cast<std::uint8_t>(data[pos + i]))
                 << (8 * i);
    pos += 4;
    f.dataLen = static_cast<std::size_t>(f.compLen ? f.compLen
                                                   : f.rawLen);
    if (f.dataLen > limit - pos) {
        err.offset = pos;
        err.reason = "truncated block (data length " +
                     std::to_string(f.dataLen) + ", " +
                     std::to_string(limit - pos) + " bytes left)";
        return false;
    }
    f.dataPos = pos;
    pos += f.dataLen;
    return true;
}

/**
 * Per-block sorted-unique dictionary column decode: the inverse of
 * putDictColumn. The @p n values go to store(i, value) in order.
 */
template <typename Store>
bool
getDictColumn(io::ByteSpan raw, std::size_t &p, std::size_t lim,
              std::uint64_t n, Store &&store, ParseError &e)
{
    std::uint64_t dn = 0;
    if (!getBounded(raw, p, lim, dn, e))
        return false;
    if (dn > lim - p) {
        e.reason = "declared dictionary size " + std::to_string(dn) +
                   " exceeds block size";
        return false;
    }
    std::vector<std::uint64_t> dict(static_cast<std::size_t>(dn));
    std::uint64_t prev = 0;
    for (std::uint64_t j = 0; j < dn; ++j) {
        std::uint64_t d = 0;
        if (!getBounded(raw, p, lim, d, e))
            return false;
        if (d > ~static_cast<std::uint64_t>(0) - prev) {
            e.reason = "dictionary value overflows 64 bits";
            return false;
        }
        prev += d;
        dict[static_cast<std::size_t>(j)] = prev;
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t idx = 0;
        if (!getBounded(raw, p, lim, idx, e))
            return false;
        if (idx >= dn) {
            e.reason = "dictionary index " + std::to_string(idx) +
                       " out of range (dictionary holds " +
                       std::to_string(dn) + ")";
            return false;
        }
        store(static_cast<std::size_t>(i),
              dict[static_cast<std::size_t>(idx)]);
    }
    return true;
}

/**
 * The columnar block decoders write the block's @p n events straight
 * into out[0..n), column by column. On a defect they return false
 * with out[] partly written; the caller discards the slice.
 */
bool
decodeInto(io::ByteSpan raw, std::uint64_t n, CSwitchEvent *out,
           ParseError &e)
{
    std::size_t p = 0;
    const std::size_t lim = raw.size();
    SimTime prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t d = 0;
        if (!getBounded(raw, p, lim, d, e))
            return false;
        if (d > sim::kNoTime - prev) {
            e.reason = "timestamp delta overflows 64 bits";
            return false;
        }
        prev += d;
        out[i].timestamp = prev;
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t w = 0;
        if (!getBounded(raw, p, lim, w, e))
            return false;
        SimTime t = out[i].timestamp;
        if (w > t) {
            // A wait longer than the switch-in time would place the
            // ready time before time zero — only corruption can
            // produce this (the writer refuses inverted ready
            // times), so the whole block is rejected.
            e.reason = "ready-time wait " + std::to_string(w) +
                       " precedes time zero at switch-in " +
                       std::to_string(t);
            return false;
        }
        out[i].readyTime = t - w;
    }
    // The chain predictor keys on the full decoded cpu value, so the
    // column is kept wide until the prediction pass.
    std::vector<std::uint64_t> cpu(static_cast<std::size_t>(n));
    for (std::uint64_t i = 0; i < n; ++i) {
        if (!getBounded(raw, p, lim, cpu[static_cast<std::size_t>(i)],
                        e))
            return false;
    }
    // Miss-index column: the records whose outgoing thread the
    // block-local chain predictor cannot supply.
    std::uint64_t nMiss = 0;
    if (!getBounded(raw, p, lim, nMiss, e))
        return false;
    if (nMiss > n) {
        e.reason = "old-thread miss count " + std::to_string(nMiss) +
                   " exceeds the record count " + std::to_string(n);
        return false;
    }
    std::vector<std::uint64_t> missIdx(
        static_cast<std::size_t>(nMiss));
    std::uint64_t idx = 0;
    for (std::uint64_t k = 0; k < nMiss; ++k) {
        std::uint64_t gap = 0;
        if (!getBounded(raw, p, lim, gap, e))
            return false;
        if (k > 0 && gap == 0) {
            e.reason = "old-thread miss indices not increasing";
            return false;
        }
        if (gap > n || (k > 0 && idx + gap >= n) ||
            (k == 0 && gap >= n)) {
            e.reason = "old-thread miss index out of range";
            return false;
        }
        idx = k == 0 ? gap : idx + gap;
        missIdx[static_cast<std::size_t>(k)] = idx;
    }
    std::vector<std::uint64_t> oldPidMiss(
        static_cast<std::size_t>(nMiss));
    std::vector<std::uint64_t> oldTidMiss(
        static_cast<std::size_t>(nMiss));
    if (!getDictColumn(
            raw, p, lim, nMiss,
            [&](std::size_t i, std::uint64_t v) { oldPidMiss[i] = v; },
            e) ||
        !getDictColumn(
            raw, p, lim, nMiss,
            [&](std::size_t i, std::uint64_t v) { oldTidMiss[i] = v; },
            e) ||
        !getDictColumn(raw, p, lim, n,
                       [&](std::size_t i, std::uint64_t v) {
                           out[i].newPid = static_cast<Pid>(v);
                       },
                       e) ||
        !getDictColumn(raw, p, lim, n,
                       [&](std::size_t i, std::uint64_t v) {
                           out[i].newTid = static_cast<Tid>(v);
                       },
                       e))
        return false;
    if (p != lim) {
        e.reason = std::to_string(lim - p) +
                   " trailing bytes in block";
        return false;
    }
    std::unordered_map<std::uint64_t, const CSwitchEvent *> lastNew;
    std::size_t m = 0;
    for (std::size_t i = 0; i < static_cast<std::size_t>(n); ++i) {
        CSwitchEvent &ev = out[i];
        ev.cpu = static_cast<CpuId>(cpu[i]);
        if (m < missIdx.size() && missIdx[m] == i) {
            ev.oldPid = static_cast<Pid>(oldPidMiss[m]);
            ev.oldTid = static_cast<Tid>(oldTidMiss[m]);
            ++m;
        } else {
            auto it = lastNew.find(cpu[i]);
            if (it == lastNew.end()) {
                // The writer emits a miss for the first record each
                // CPU contributes; its absence is corruption.
                e.reason = "predicted old thread on cpu " +
                           std::to_string(cpu[i]) +
                           " has no predecessor in the block";
                return false;
            }
            ev.oldPid = it->second->newPid;
            ev.oldTid = it->second->newTid;
        }
        lastNew[cpu[i]] = &ev;
    }
    return true;
}

bool
decodeInto(io::ByteSpan raw, std::uint64_t n, GpuPacketEvent *out,
           ParseError &e)
{
    std::size_t p = 0;
    const std::size_t lim = raw.size();
    SimTime prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t d = 0;
        if (!getBounded(raw, p, lim, d, e))
            return false;
        if (d > sim::kNoTime - prev) {
            e.reason = "start delta overflows 64 bits";
            return false;
        }
        prev += d;
        out[i].start = prev;
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t d = 0;
        if (!getBounded(raw, p, lim, d, e))
            return false;
        SimTime s = out[i].start;
        if (d > s) {
            e.reason = "queue delta " + std::to_string(d) +
                       " precedes time zero";
            return false;
        }
        out[i].queued = s - d;
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t d = 0;
        if (!getBounded(raw, p, lim, d, e))
            return false;
        SimTime s = out[i].start;
        if (d > sim::kNoTime - s) {
            e.reason = "finish delta overflows 64 bits";
            return false;
        }
        out[i].finish = s + d;
    }
    if (!getDictColumn(raw, p, lim, n,
                       [&](std::size_t i, std::uint64_t v) {
                           out[i].pid = static_cast<Pid>(v);
                       },
                       e))
        return false;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t v = 0;
        if (!getBounded(raw, p, lim, v, e))
            return false;
        if (v >= kNumGpuEngines) {
            e.reason = "unknown GPU engine id " + std::to_string(v);
            return false;
        }
        out[i].engine = static_cast<GpuEngineId>(v);
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t v = 0;
        if (!getBounded(raw, p, lim, v, e))
            return false;
        out[i].packetId = static_cast<std::uint32_t>(v);
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t v = 0;
        if (!getBounded(raw, p, lim, v, e))
            return false;
        out[i].queueSlot = static_cast<std::uint8_t>(v);
    }
    if (p != lim) {
        e.reason = std::to_string(lim - p) +
                   " trailing bytes in block";
        return false;
    }
    return true;
}

bool
decodeInto(io::ByteSpan raw, std::uint64_t n, FrameEvent *out,
           ParseError &e)
{
    std::size_t p = 0;
    const std::size_t lim = raw.size();
    SimTime prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t d = 0;
        if (!getBounded(raw, p, lim, d, e))
            return false;
        if (d > sim::kNoTime - prev) {
            e.reason = "timestamp delta overflows 64 bits";
            return false;
        }
        prev += d;
        out[i].timestamp = prev;
    }
    if (!getDictColumn(raw, p, lim, n,
                       [&](std::size_t i, std::uint64_t v) {
                           out[i].pid = static_cast<Pid>(v);
                       },
                       e))
        return false;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t v = 0;
        if (!getBounded(raw, p, lim, v, e))
            return false;
        out[i].frameId = static_cast<std::uint32_t>(v);
    }
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t v = 0;
        if (!getBounded(raw, p, lim, v, e))
            return false;
        out[i].synthesized = v != 0;
    }
    if (p != lim) {
        e.reason = std::to_string(lim - p) +
                   " trailing bytes in block";
        return false;
    }
    return true;
}

/**
 * Record-major block decode for the string-bearing sections, appended
 * to @p part. A defect anywhere rejects the block; the caller decodes
 * into a fresh part and splices it only on success.
 */
bool
decodeRecordColumns(Section tag, io::ByteSpan raw, std::uint64_t n,
                    TraceBundle &part, ParseError &e)
{
    std::size_t p = 0;
    const std::size_t lim = raw.size();
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t v = 0;
        switch (tag) {
          case Section::ProcessNames: {
            std::uint64_t pid = 0;
            std::string name;
            if (!getBounded(raw, p, lim, pid, e) ||
                !getBoundedString(raw, p, lim, name, e))
                return false;
            part.processNames[static_cast<Pid>(pid)] =
                std::move(name);
            break;
          }
          case Section::ThreadLife: {
            ThreadLifeEvent ev;
            if (!getBounded(raw, p, lim, ev.timestamp, e) ||
                !getBounded(raw, p, lim, v, e))
                return false;
            ev.pid = static_cast<Pid>(v);
            if (!getBounded(raw, p, lim, v, e))
                return false;
            ev.tid = static_cast<Tid>(v);
            if (!getBounded(raw, p, lim, v, e))
                return false;
            ev.created = v != 0;
            if (!getBoundedString(raw, p, lim, ev.name, e))
                return false;
            part.threadEvents.push_back(std::move(ev));
            break;
          }
          case Section::ProcessLife: {
            ProcessLifeEvent ev;
            if (!getBounded(raw, p, lim, ev.timestamp, e) ||
                !getBounded(raw, p, lim, v, e))
                return false;
            ev.pid = static_cast<Pid>(v);
            if (!getBounded(raw, p, lim, v, e))
                return false;
            ev.created = v != 0;
            if (!getBoundedString(raw, p, lim, ev.name, e))
                return false;
            part.processEvents.push_back(std::move(ev));
            break;
          }
          case Section::Markers: {
            MarkerEvent ev;
            if (!getBounded(raw, p, lim, ev.timestamp, e) ||
                !getBoundedString(raw, p, lim, ev.label, e))
                return false;
            part.markers.push_back(std::move(ev));
            break;
          }
          default:
            e.reason = "record-major decode of a columnar section";
            return false;
        }
    }
    if (p != lim) {
        e.reason = std::to_string(lim - p) +
                   " trailing bytes in block";
        return false;
    }
    return true;
}

/** CSwitch, GpuPackets and Frames: the sections decoded in place. */
constexpr Section kColumnar[] = {Section::CSwitch, Section::GpuPackets,
                                 Section::Frames};

bool
isColumnar(Section tag)
{
    return tag == Section::CSwitch || tag == Section::GpuPackets ||
           tag == Section::Frames;
}

/** fn(events) on the event vector of columnar section @p tag. */
template <typename Fn>
decltype(auto)
withColumn(TraceBundle &bundle, Section tag, Fn &&fn)
{
    switch (tag) {
      case Section::CSwitch:
        return fn(bundle.cswitches);
      case Section::GpuPackets:
        return fn(bundle.gpuPackets);
      default:
        return fn(bundle.frames);
    }
}

/** Splice the record-major containers of @p part onto @p bundle. */
void
appendRecords(TraceBundle &bundle, TraceBundle &part)
{
    bundle.threadEvents.insert(bundle.threadEvents.end(),
                               part.threadEvents.begin(),
                               part.threadEvents.end());
    bundle.processEvents.insert(bundle.processEvents.end(),
                                part.processEvents.begin(),
                                part.processEvents.end());
    bundle.markers.insert(bundle.markers.end(),
                          part.markers.begin(), part.markers.end());
    for (auto &[pid, name] : part.processNames)
        bundle.processNames[pid] = std::move(name);
}

/**
 * Checksum and, if compressed, inflate one block. @p raw then views
 * the block's column bytes (the stored bytes or @p rawBuf); on a
 * defect @p err holds the reason.
 */
bool
openBlock(io::ByteSpan data, const BlockFrame &f, std::string &rawBuf,
          io::ByteSpan &raw, ParseError &err)
{
    raw = data.substr(f.dataPos, f.dataLen);
    std::uint32_t crc = crc32c(raw);
    if (crc != f.crc) {
        err.reason = "block checksum mismatch (stored 0x" +
                     hex32(f.crc) + ", computed 0x" + hex32(crc) +
                     ")";
        return false;
    }
    if (f.compLen == 0)
        return true;
    std::string reason;
    if (!etlcDecompress(raw, static_cast<std::size_t>(f.rawLen),
                        rawBuf, reason)) {
        err.reason = "corrupt compressed block: " + reason;
        return false;
    }
    if (rawBuf.size() != f.rawLen) {
        err.reason = "block uncompressed length " +
                     std::to_string(f.rawLen) +
                     " does not match decoded length " +
                     std::to_string(rawBuf.size());
        return false;
    }
    raw = rawBuf;
    return true;
}

/**
 * Serially decode one block (checksum, decompression, columns) onto
 * the end of @p bundle. On a defect, notes one located diagnostic —
 * anchored at the block frame offset and the block's first record
 * index — and returns false with @p bundle as it was.
 */
bool
decodeBlockContent(EtlcReader &r, Section tag, const char *name,
                   const BlockFrame &f, std::size_t framePos,
                   std::uint64_t firstRecord, TraceBundle &bundle)
{
    ParseError err;
    std::string rawBuf;
    io::ByteSpan raw;
    if (openBlock(r.data, f, rawBuf, raw, err)) {
        auto n = static_cast<std::size_t>(f.records);
        bool ok;
        if (isColumnar(tag)) {
            ok = withColumn(bundle, tag, [&](auto &events) {
                std::size_t at = events.size();
                events.resize(at + n);
                if (decodeInto(raw, n, events.data() + at, err))
                    return true;
                events.resize(at);
                return false;
            });
        } else {
            TraceBundle part;
            ok = decodeRecordColumns(tag, raw, n, part, err);
            if (ok)
                appendRecords(bundle, part);
        }
        if (ok)
            return true;
    }
    err.offset = framePos;
    r.note(r.located(std::move(err), name, firstRecord));
    return false;
}

/**
 * Decode one section payload — totals, block frames, blocks — with
 * r.pos at the record-count varint and @p limit at the frame end.
 * Lenient mode skips defective blocks in place (later blocks still
 * decode; timestamps restart per block) and only returns false for
 * section-structural defects, where the caller hops the whole frame.
 * Strict mode returns false at the first defect of any kind.
 */
bool
decodeEtlcSectionBody(EtlcReader &r, Section tag, const char *name,
                      std::size_t tagPos, std::size_t limit,
                      TraceBundle &bundle)
{
    io::ByteSpan data = r.data;
    ParseError ferr;
    std::uint64_t total = 0, blockCount = 0;
    if (!getBounded(data, r.pos, limit, total, ferr) ||
        !getBounded(data, r.pos, limit, blockCount, ferr)) {
        r.note(r.located(std::move(ferr), name,
                         ParseError::kNoPosition));
        return false;
    }
    if (blockCount > limit - r.pos) {
        r.note(r.makeError(name, ParseError::kNoPosition, tagPos,
                           "declared block count " +
                               std::to_string(blockCount) +
                               " exceeds section size"));
        return false;
    }

    bool lenient = r.options.mode == ParseMode::Lenient;
    std::uint64_t decoded = 0, skipped = 0;
    for (std::uint64_t b = 0; b < blockCount; ++b) {
        std::size_t framePos = r.pos;
        BlockFrame f;
        ParseError err;
        if (!readBlockFrame(data, r.pos, limit, f, err)) {
            // The frame header itself is unreadable: the next block
            // cannot be located, so the section remainder is lost in
            // both modes (the v3 section-skip model).
            r.note(r.located(std::move(err), name,
                             ParseError::kNoPosition));
            r.report.recordsSkipped += total - decoded - skipped;
            return false;
        }
        if (decodeBlockContent(r, tag, name, f, framePos,
                               decoded + skipped, bundle)) {
            r.report.recordsParsed += f.records;
            decoded += f.records;
            continue;
        }
        if (!lenient) {
            r.report.recordsSkipped += total - decoded - skipped;
            return false;
        }
        r.report.recordsSkipped += f.records;
        skipped += f.records;
    }

    if (decoded + skipped != total) {
        r.note(r.makeError(name, ParseError::kNoPosition, tagPos,
                           "declared record count " +
                               std::to_string(total) +
                               " does not match the " +
                               std::to_string(decoded + skipped) +
                               " records in blocks"));
        return false;
    }
    if (r.pos != limit) {
        r.note(r.makeError(name, ParseError::kNoPosition, r.pos,
                           std::to_string(limit - r.pos) +
                               " trailing bytes in section"));
        return false;
    }
    return true;
}

/** One block located by the in-place pre-scan. */
struct BlockTask
{
    Section tag;
    BlockFrame frame;
    /** Index of the block's first record within its section. */
    std::uint64_t firstRecord;
};

/** Span inputs below this decode on one thread unless forced. */
constexpr std::size_t kMinParallelBytes = 1 << 16;

/**
 * Cap on the bytes the in-place decode presizes, per byte of the
 * .etlc body. Real traces presize 6 to 8 bytes of events per body
 * byte. Declared totals come from untrusted frames (an LZ block can
 * expand about 255x), so a file claiming more than this takes the
 * serial path, whose allocations follow the bytes that actually
 * decompress.
 */
constexpr std::uint64_t kMaxPresizePerByte = 64;

/**
 * The production decode, in place: a serial pre-scan walks the
 * section and block framing only; if every frame is perfectly
 * regular and the declared totals fit the presize bound, the
 * columnar containers are sized once and the blocks of all sections
 * decode concurrently, each columnar block straight into its own
 * slice of the output (record-major blocks into small per-block
 * parts, spliced in file order). Returns false with @p bundle's
 * containers empty, r.pos and the report untouched on any framing
 * irregularity or defective block: the serial loop then reproduces
 * the exact diagnostics.
 */
bool
tryDecodeInPlace(EtlcReader &r, unsigned jobs, TraceBundle &bundle)
{
    std::vector<BlockTask> tasks;
    std::array<bool, 256> seen{};
    std::array<std::uint64_t, 256> totals{};
    std::size_t pos = r.pos;
    bool sawEnd = false;
    while (pos < r.data.size()) {
        auto tag = static_cast<Section>(
            static_cast<std::uint8_t>(r.data[pos++]));
        if (tag == Section::End) {
            sawEnd = true;
            break;
        }
        if (std::strcmp(sectionName(tag), "Unknown") == 0)
            return false;
        auto tagByte = static_cast<std::uint8_t>(tag);
        if (seen[tagByte])
            return false; // duplicate sections share containers
        seen[tagByte] = true;
        ParseError ferr;
        std::uint64_t length = 0;
        if (!getBounded(r.data, pos, r.data.size(), length, ferr))
            return false;
        if (length > r.data.size() - pos)
            return false;
        std::size_t limit = pos + static_cast<std::size_t>(length);

        std::uint64_t total = 0, blockCount = 0;
        if (!getBounded(r.data, pos, limit, total, ferr) ||
            !getBounded(r.data, pos, limit, blockCount, ferr))
            return false;
        std::uint64_t running = 0;
        for (std::uint64_t b = 0; b < blockCount; ++b) {
            BlockFrame f;
            if (!readBlockFrame(r.data, pos, limit, f, ferr))
                return false;
            tasks.push_back({tag, f, running});
            running += f.records;
        }
        if (running != total || pos != limit)
            return false;
        totals[tagByte] = total;
    }
    if (!sawEnd)
        return false;

    std::uint64_t budget = kMaxPresizePerByte * r.data.size();
    for (Section tag : kColumnar) {
        bool fits = withColumn(bundle, tag, [&](auto &events) {
            std::uint64_t n = totals[static_cast<std::uint8_t>(tag)];
            if (n > budget / sizeof(events[0]))
                return false;
            budget -= n * sizeof(events[0]);
            return true;
        });
        if (!fits)
            return false;
    }
    for (Section tag : kColumnar) {
        withColumn(bundle, tag, [&](auto &events) {
            events.resize(totals[static_cast<std::uint8_t>(tag)]);
        });
    }

    std::vector<TraceBundle> parts(tasks.size());
    std::atomic<bool> clean{true};
    sim::parallelFor(jobs, tasks.size(), [&](std::size_t i) {
        const BlockTask &t = tasks[i];
        if (!clean.load(std::memory_order_relaxed))
            return;
        obs::Span blockSpan("ingest.etlc.block",
                            obs::SpanKind::Ingest, t.frame.dataLen);
        ParseError err;
        std::string rawBuf;
        io::ByteSpan raw;
        bool ok = openBlock(r.data, t.frame, rawBuf, raw, err);
        if (ok && isColumnar(t.tag)) {
            ok = withColumn(bundle, t.tag, [&](auto &events) {
                return decodeInto(raw, t.frame.records,
                                  events.data() + t.firstRecord, err);
            });
        } else if (ok) {
            ok = decodeRecordColumns(t.tag, raw, t.frame.records,
                                     parts[i], err);
        }
        if (!ok)
            clean.store(false, std::memory_order_relaxed);
    });
    if (!clean.load()) {
        for (Section tag : kColumnar)
            withColumn(bundle, tag, [](auto &events) { events.clear(); });
        return false;
    }

    for (std::size_t i = 0; i < tasks.size(); ++i) {
        if (!isColumnar(tasks[i].tag))
            appendRecords(bundle, parts[i]);
        r.report.recordsParsed += tasks[i].frame.records;
    }
    return true;
}

/** Decode a version-1 body (the bytes past the magic). */
TraceBundle
decodeEtlcBody(io::ByteSpan data, const ParseOptions &options,
               IngestReport &report)
{
    obs::Span ingestSpan("ingest.etlc", obs::SpanKind::Ingest,
                         data.size());
    obs::counterAdd("ingest.etlc.bytes",
                    static_cast<std::int64_t>(data.size()));
    TraceBundle bundle;
    EtlcReader r{data, options, report};

    std::uint64_t version = 0, value = 0;
    auto headerField = [&](const char *field, std::uint64_t &out) {
        ParseError err;
        if (getBounded(data, r.pos, data.size(), out, err))
            return true;
        err.field = field;
        r.note(r.located(std::move(err), "header",
                         ParseError::kNoPosition));
        return false;
    };
    if (!headerField("version", version))
        return bundle;
    if (version != kEtlcVersion) {
        r.note(r.makeError("header", ParseError::kNoPosition, 0,
                           "unsupported version " +
                               std::to_string(version) + " (want " +
                               std::to_string(kEtlcVersion) + ")"));
        return bundle;
    }
    if (!headerField("startTime", bundle.startTime) ||
        !headerField("stopTime", value))
        return bundle;
    bundle.stopTime = value;
    if (!headerField("numLogicalCpus", value))
        return bundle;
    bundle.numLogicalCpus = static_cast<std::uint32_t>(value);

    bool lenient = options.mode == ParseMode::Lenient;

    unsigned jobs = options.threads;
    if (jobs == 0) {
        jobs = data.size() >= kMinParallelBytes ? sim::resolveJobs()
                                                : 1;
    }
    bool inPlace = tryDecodeInPlace(r, jobs, bundle);
    obs::counterAdd("ingest.etlc.serial_redecode", inPlace ? 0 : 1);
    if (inPlace)
        return bundle;

    // Section frames, serially. A defect inside a frame fails only
    // that frame: lenient mode hops to the next frame via the length
    // prefix.
    while (true) {
        if (r.pos >= data.size()) {
            r.note(r.makeError("trailer", ParseError::kNoPosition,
                               r.pos, "missing end section"));
            report.salvaged = lenient;
            return bundle;
        }
        auto tagPos = r.pos;
        auto tag = static_cast<Section>(
            static_cast<std::uint8_t>(data[r.pos++]));
        if (tag == Section::End)
            break;

        ParseError ferr;
        std::uint64_t length = 0;
        if (!getBounded(data, r.pos, data.size(), length, ferr)) {
            r.note(r.located(std::move(ferr), "frame",
                             ParseError::kNoPosition));
            report.salvaged = lenient;
            return bundle;
        }
        if (length > data.size() - r.pos) {
            r.note(r.makeError(sectionName(tag),
                               ParseError::kNoPosition, r.pos,
                               "section length " +
                                   std::to_string(length) +
                                   " exceeds remaining input"));
            report.salvaged = lenient;
            return bundle;
        }
        std::size_t limit = r.pos + static_cast<std::size_t>(length);
        const char *name = sectionName(tag);

        bool good;
        if (std::strcmp(name, "Unknown") == 0) {
            r.note(r.makeError(
                name, ParseError::kNoPosition, tagPos,
                "unknown section tag " +
                    std::to_string(static_cast<unsigned>(tag))));
            good = false;
        } else {
            obs::Span sectionSpan("ingest.etlc.section",
                                  obs::SpanKind::Ingest,
                                  limit - r.pos);
            good = decodeEtlcSectionBody(r, tag, name, tagPos, limit,
                                         bundle);
        }

        if (!good) {
            if (!lenient)
                return bundle;
            r.pos = limit;
        }
    }
    return bundle;
}

} // namespace

// --------------------------------------------------------------------
// Compression primitives
// --------------------------------------------------------------------

namespace {

/**
 * Slice-by-8 CRC32C tables: table[0] is the classic byte-at-a-time
 * table, table[j] advances a byte that is j positions deeper in the
 * current 8-byte window, so one loop iteration folds 8 input bytes
 * with 8 independent lookups instead of an 8-deep dependency chain.
 */
const std::array<std::array<std::uint32_t, 256>, 8> &
crc32cTables()
{
    static const auto tables = [] {
        std::array<std::array<std::uint32_t, 256>, 8> t{};
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = i;
            for (int k = 0; k < 8; ++k)
                c = (c & 1) ? 0x82f63b78u ^ (c >> 1) : c >> 1;
            t[0][i] = c;
        }
        for (std::uint32_t i = 0; i < 256; ++i) {
            std::uint32_t c = t[0][i];
            for (std::size_t j = 1; j < 8; ++j) {
                c = t[0][c & 0xff] ^ (c >> 8);
                t[j][i] = c;
            }
        }
        return t;
    }();
    return tables;
}

#if defined(__x86_64__) && defined(__GNUC__)
/**
 * The SSE4.2 crc32 instruction implements exactly the Castagnoli
 * polynomial this format uses. Compiled for sse4.2 explicitly; only
 * called after a runtime cpuid check.
 */
__attribute__((target("sse4.2"))) std::uint32_t
crc32cHw(std::uint32_t crc, const char *p, std::size_t n)
{
    std::uint64_t acc = crc;
    while (n >= 8) {
        std::uint64_t word;
        std::memcpy(&word, p, 8);
        acc = __builtin_ia32_crc32di(acc, word);
        p += 8;
        n -= 8;
    }
    crc = static_cast<std::uint32_t>(acc);
    while (n--) {
        crc = __builtin_ia32_crc32qi(
            crc, static_cast<std::uint8_t>(*p++));
    }
    return crc;
}
#endif

} // namespace

std::uint32_t
crc32c(io::ByteSpan data)
{
    const char *p = data.data();
    std::size_t n = data.size();
    std::uint32_t crc = 0xffffffffu;

#if defined(__x86_64__) && defined(__GNUC__)
    static const bool hw = __builtin_cpu_supports("sse4.2");
    if (hw)
        return crc32cHw(crc, p, n) ^ 0xffffffffu;
#endif

    const auto &t = crc32cTables();
#if defined(__BYTE_ORDER__) &&                                       \
    __BYTE_ORDER__ == __ORDER_LITTLE_ENDIAN__
    // The word-at-a-time fold below bakes in little-endian lane
    // order; big-endian hosts take the bytewise tail loop.
    while (n >= 8) {
        std::uint32_t lo, hi;
        std::memcpy(&lo, p, 4);
        std::memcpy(&hi, p + 4, 4);
        lo ^= crc;
        crc = t[7][lo & 0xff] ^ t[6][(lo >> 8) & 0xff] ^
              t[5][(lo >> 16) & 0xff] ^ t[4][lo >> 24] ^
              t[3][hi & 0xff] ^ t[2][(hi >> 8) & 0xff] ^
              t[1][(hi >> 16) & 0xff] ^ t[0][hi >> 24];
        p += 8;
        n -= 8;
    }
#endif
    while (n--) {
        crc = t[0][(crc ^ static_cast<std::uint8_t>(*p++)) & 0xff] ^
              (crc >> 8);
    }
    return crc ^ 0xffffffffu;
}

std::string
etlcCompress(io::ByteSpan raw)
{
    std::string out;
    const std::size_t size = raw.size();

    // sequence := token (lit-len high nibble, match-len-4 low
    // nibble; 15 = extension bytes in 255-runs), literals,
    // [2-byte LE offset, match extension]. The final sequence is
    // always literal-only.
    auto emit = [&](std::size_t litStart, std::size_t litLen,
                    std::size_t matchLen, std::size_t offset) {
        std::size_t ml = matchLen ? matchLen - kMinMatch : 0;
        out.push_back(static_cast<char>(
            (std::min<std::size_t>(litLen, 15) << 4) |
            std::min<std::size_t>(ml, 15)));
        if (litLen >= 15) {
            std::size_t rest = litLen - 15;
            while (rest >= 255) {
                out.push_back(static_cast<char>(255));
                rest -= 255;
            }
            out.push_back(static_cast<char>(rest));
        }
        out.append(raw.data() + litStart, litLen);
        if (matchLen) {
            out.push_back(static_cast<char>(offset & 0xff));
            out.push_back(static_cast<char>((offset >> 8) & 0xff));
            if (ml >= 15) {
                std::size_t rest = ml - 15;
                while (rest >= 255) {
                    out.push_back(static_cast<char>(255));
                    rest -= 255;
                }
                out.push_back(static_cast<char>(rest));
            }
        }
    };

    if (size < kMinMatch + 1) {
        emit(0, size, 0, 0);
        return out;
    }

    constexpr unsigned kHashBits = 13;
    std::vector<std::int32_t> table(std::size_t(1) << kHashBits, -1);
    auto hashAt = [&](std::size_t p) {
        std::uint32_t v;
        std::memcpy(&v, raw.data() + p, 4);
        return (v * 2654435761u) >> (32 - kHashBits);
    };

    std::size_t pos = 0, anchor = 0;
    const std::size_t hashLimit = size - kMinMatch;
    while (pos <= hashLimit) {
        std::uint32_t h = hashAt(pos);
        std::int32_t cand = table[h];
        table[h] = static_cast<std::int32_t>(pos);
        auto candPos = static_cast<std::size_t>(cand);
        if (cand >= 0 && pos - candPos <= 0xffff &&
            std::memcmp(raw.data() + candPos, raw.data() + pos, 4) ==
                0) {
            std::size_t len = kMinMatch;
            while (pos + len < size &&
                   raw[candPos + len] == raw[pos + len])
                ++len;
            emit(anchor, pos - anchor, len, pos - candPos);
            pos += len;
            anchor = pos;
        } else {
            ++pos;
        }
    }
    emit(anchor, size - anchor, 0, 0);
    return out;
}

bool
etlcDecompress(io::ByteSpan compressed, std::size_t rawLen,
               std::string &out, std::string &reason)
{
    out.clear();
    out.reserve(rawLen);
    std::size_t pos = 0;
    const std::size_t size = compressed.size();
    auto byteAt = [&](std::size_t p) {
        return static_cast<std::uint8_t>(compressed[p]);
    };
    while (pos < size) {
        std::uint8_t token = byteAt(pos++);
        std::size_t lit = token >> 4;
        std::size_t mlNibble = token & 0xf;
        if (lit == 15) {
            while (true) {
                if (pos >= size) {
                    reason = "truncated literal length";
                    return false;
                }
                std::uint8_t b = byteAt(pos++);
                lit += b;
                if (b != 255)
                    break;
            }
        }
        if (lit > size - pos) {
            reason = "literal run past end of block";
            return false;
        }
        if (lit > rawLen - out.size()) {
            reason = "decompressed output exceeds declared length";
            return false;
        }
        out.append(compressed.data() + pos, lit);
        pos += lit;
        if (pos == size) {
            if (mlNibble != 0) {
                reason = "truncated match";
                return false;
            }
            break;
        }
        if (size - pos < 2) {
            reason = "truncated match offset";
            return false;
        }
        std::size_t offset = byteAt(pos) |
                             (static_cast<std::size_t>(byteAt(pos + 1))
                              << 8);
        pos += 2;
        if (offset == 0 || offset > out.size()) {
            reason = "match offset out of range";
            return false;
        }
        std::size_t matchLen = mlNibble + kMinMatch;
        if (mlNibble == 15) {
            while (true) {
                if (pos >= size) {
                    reason = "truncated match length";
                    return false;
                }
                std::uint8_t b = byteAt(pos++);
                matchLen += b;
                if (b != 255)
                    break;
            }
        }
        if (matchLen > rawLen - out.size()) {
            reason = "decompressed output exceeds declared length";
            return false;
        }
        for (std::size_t k = 0; k < matchLen; ++k)
            out.push_back(out[out.size() - offset]);
    }
    return true;
}

// --------------------------------------------------------------------
// Public entry points
// --------------------------------------------------------------------

bool
isEtlcData(io::ByteSpan data)
{
    return data.size() >= sizeof(kMagic) &&
           data.compare(0, sizeof(kMagic),
                        std::string_view(kMagic,
                                         sizeof(kMagic))) == 0;
}

void
writeEtlc(const TraceBundle &bundle, std::ostream &out)
{
    auto defects = bundle.validateEncoding();
    if (!defects.empty())
        throw TraceParseError(defects.front());

    std::string body;
    putVarint(body, kEtlcVersion);
    putVarint(body, bundle.startTime);
    putVarint(body, bundle.stopTime);
    putVarint(body, bundle.numLogicalCpus);

    {
        // Sort pids so the encoding is deterministic.
        std::vector<Pid> pids;
        pids.reserve(bundle.processNames.size());
        for (const auto &[pid, name] : bundle.processNames)
            pids.push_back(pid);
        std::sort(pids.begin(), pids.end());
        BlockSink sink;
        putRecordBlocks(sink, pids.begin(), pids.end(),
                        [&](std::string &raw, Pid pid) {
                            putVarint(raw, pid);
                            putString(raw,
                                      bundle.processNames.at(pid));
                        });
        putSection(body, Section::ProcessNames,
                   sectionPayload(pids.size(), sink));
    }

    {
        BlockSink sink;
        CSwitchCols cols;
        for (const auto &e : bundle.cswitches) {
            cols.add(e);
            if (cols.bytes() >= kEtlcBlockBytes) {
                sink.flush(cols.encode(), cols.n);
                cols = CSwitchCols{};
            }
        }
        sink.flush(cols.encode(), cols.n);
        putSection(body, Section::CSwitch,
                   sectionPayload(bundle.cswitches.size(), sink));
    }

    {
        BlockSink sink;
        GpuCols cols;
        for (const auto &e : bundle.gpuPackets) {
            cols.add(e);
            if (cols.bytes() >= kEtlcBlockBytes) {
                sink.flush(cols.encode(), cols.n);
                cols = GpuCols{};
            }
        }
        sink.flush(cols.encode(), cols.n);
        putSection(body, Section::GpuPackets,
                   sectionPayload(bundle.gpuPackets.size(), sink));
    }

    {
        BlockSink sink;
        FrameCols cols;
        for (const auto &e : bundle.frames) {
            cols.add(e);
            if (cols.bytes() >= kEtlcBlockBytes) {
                sink.flush(cols.encode(), cols.n);
                cols = FrameCols{};
            }
        }
        sink.flush(cols.encode(), cols.n);
        putSection(body, Section::Frames,
                   sectionPayload(bundle.frames.size(), sink));
    }

    {
        BlockSink sink;
        putRecordBlocks(sink, bundle.threadEvents.begin(),
                        bundle.threadEvents.end(),
                        [](std::string &raw,
                           const ThreadLifeEvent &e) {
                            putVarint(raw, e.timestamp);
                            putVarint(raw, e.pid);
                            putVarint(raw, e.tid);
                            putVarint(raw, e.created ? 1 : 0);
                            putString(raw, e.name);
                        });
        putSection(body, Section::ThreadLife,
                   sectionPayload(bundle.threadEvents.size(), sink));
    }

    {
        BlockSink sink;
        putRecordBlocks(sink, bundle.processEvents.begin(),
                        bundle.processEvents.end(),
                        [](std::string &raw,
                           const ProcessLifeEvent &e) {
                            putVarint(raw, e.timestamp);
                            putVarint(raw, e.pid);
                            putVarint(raw, e.created ? 1 : 0);
                            putString(raw, e.name);
                        });
        putSection(body, Section::ProcessLife,
                   sectionPayload(bundle.processEvents.size(),
                                  sink));
    }

    {
        BlockSink sink;
        putRecordBlocks(sink, bundle.markers.begin(),
                        bundle.markers.end(),
                        [](std::string &raw, const MarkerEvent &e) {
                            putVarint(raw, e.timestamp);
                            putString(raw, e.label);
                        });
        putSection(body, Section::Markers,
                   sectionPayload(bundle.markers.size(), sink));
    }

    body.push_back(static_cast<char>(Section::End));

    out.write(kMagic, sizeof(kMagic));
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    if (!out)
        fatal("writeEtlc: stream write failed");
}

void
writeEtlc(const TraceBundle &bundle, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("writeEtlc: cannot open " + path);
    writeEtlc(bundle, out);
}

TraceBundle
decodeEtlc(io::ByteSpan data, const ParseOptions &options,
           IngestReport &report)
{
    report = IngestReport{};
    report.source =
        options.source.empty() ? "<stream>" : options.source;
    report.mode = options.mode;

    if (!isEtlcData(data)) {
        ParseError err;
        err.source = report.source;
        err.section = "header";
        err.offset = 0;
        err.reason = data.size() < sizeof(kMagic) ? "truncated magic"
                                                  : "bad magic";
        report.note(std::move(err), options.maxStoredErrors);
        return TraceBundle{};
    }
    return decodeEtlcBody(data.substr(sizeof(kMagic)), options,
                          report);
}

std::vector<EtlcBlockRef>
etlcScanBlocks(io::ByteSpan data)
{
    std::vector<EtlcBlockRef> refs;
    if (!isEtlcData(data))
        return {};
    io::ByteSpan body = data.substr(sizeof(kMagic));
    std::size_t pos = 0;
    ParseError err;
    std::uint64_t v = 0;
    // Header: version, startTime, stopTime, numLogicalCpus.
    for (int i = 0; i < 4; ++i) {
        if (!getBounded(body, pos, body.size(), v, err))
            return {};
    }
    bool sawEnd = false;
    while (pos < body.size()) {
        auto tag = static_cast<std::uint8_t>(body[pos++]);
        if (tag == static_cast<std::uint8_t>(Section::End)) {
            sawEnd = true;
            break;
        }
        std::uint64_t length = 0;
        if (!getBounded(body, pos, body.size(), length, err))
            return {};
        if (length > body.size() - pos)
            return {};
        std::size_t limit = pos + static_cast<std::size_t>(length);
        std::uint64_t total = 0, blockCount = 0;
        if (!getBounded(body, pos, limit, total, err) ||
            !getBounded(body, pos, limit, blockCount, err))
            return {};
        std::uint64_t running = 0;
        for (std::uint64_t b = 0; b < blockCount; ++b) {
            EtlcBlockRef ref;
            ref.section = tag;
            ref.framePos = pos + sizeof(kMagic);
            BlockFrame f;
            // Field offsets: re-walk the varints individually so the
            // ref can point mutations at each piece of the frame.
            std::size_t scan = pos;
            if (!getBounded(body, scan, limit, f.records, err))
                return {};
            ref.rawLenPos = scan + sizeof(kMagic);
            std::size_t probe = pos;
            if (!readBlockFrame(body, probe, limit, f, err))
                return {};
            ref.records = f.records;
            ref.rawLen = f.rawLen;
            ref.crcPos = f.dataPos - 4 + sizeof(kMagic);
            ref.dataPos = f.dataPos + sizeof(kMagic);
            ref.dataLen = f.dataLen;
            refs.push_back(ref);
            pos = probe;
            running += f.records;
        }
        if (running != total || pos != limit)
            return {};
    }
    if (!sawEnd)
        return {};
    return refs;
}

} // namespace deskpar::trace

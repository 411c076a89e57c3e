#include "trace/etl.hh"

#include <algorithm>
#include <cstring>
#include <fstream>

#include "obs/obs.hh"
#include "sim/logging.hh"

namespace deskpar::trace {

namespace {

const char kMagic[8] = {'D', 'P', 'E', 'T', 'L', '\x01', '\x00',
                        '\x00'};

/** Section tags. */
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

/**
 * Bounded no-throw varint decode; @p limit is the end of the current
 * section frame. On failure @p err holds the failing byte offset
 * relative to @p data (the caller rebases past the magic).
 */
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

/**
 * Shared decoding state of one section stream: the body span (file
 * bytes past the magic), the report under construction, and the
 * options. Body offsets are rebased past the magic in every
 * diagnostic. One EtlReader walks the whole body.
 */
struct EtlReader
{
    io::ByteSpan data;
    const ParseOptions &options;
    IngestReport &report;

    std::size_t pos = 0;

    /** Rebase a body position to a whole-file byte offset. */
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
            err.offset = fileOffset(static_cast<std::size_t>(err.offset));
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

/**
 * Decode @p count records of one section via @p record(i, err).
 * Returns false on the first defective record after noting its
 * diagnostic and counting the section remainder as skipped.
 */
template <typename RecordFn>
bool
decodeRecords(EtlReader &r, const char *section, std::uint64_t count,
              RecordFn &&record)
{
    for (std::uint64_t i = 0; i < count; ++i) {
        ParseError err;
        if (!record(i, err)) {
            r.note(r.located(std::move(err), section, i));
            r.report.recordsSkipped += count - i;
            return false;
        }
        ++r.report.recordsParsed;
    }
    return true;
}

/**
 * Decode one section frame's payload — count varint, records,
 * trailing-bytes check — with r.pos at the count varint and @p limit
 * at the frame end. Returns false when the section is defective (the
 * diagnostic is already noted and any cleanly decoded record prefix
 * is kept); the caller decides strict-fail vs lenient-hop.
 */
bool
decodeSectionBody(EtlReader &r, Section tag, const char *name,
                  std::size_t tagPos, std::size_t limit,
                  TraceBundle &bundle)
{
    io::ByteSpan data = r.data;
    ParseError ferr;
    std::uint64_t count = 0;
    bool good = true;
    // Every record of a known section is at least one byte, so a
    // count beyond the frame length is corrupt; rejecting it here
    // also keeps reserve() from ballooning on garbage counts.
    if (!getBounded(data, r.pos, limit, count, ferr)) {
        r.note(r.located(std::move(ferr), name,
                         ParseError::kNoPosition));
        good = false;
    } else if (count > limit - r.pos) {
        r.note(r.makeError(name, ParseError::kNoPosition, tagPos,
                           "declared count " + std::to_string(count) +
                               " exceeds section size"));
        good = false;
    }
    if (good) {
        switch (tag) {
          case Section::ProcessNames:
            good = decodeRecords(
                r, name, count,
                [&](std::uint64_t, ParseError &e) {
                    std::uint64_t pid = 0;
                    std::string pname;
                    if (!getBounded(data, r.pos, limit, pid, e) ||
                        !getBoundedString(data, r.pos, limit,
                                          pname, e))
                        return false;
                    bundle.processNames
                        [static_cast<Pid>(pid)] = pname;
                    return true;
                });
            break;

          case Section::CSwitch: {
            SimTime prev = 0;
            bundle.cswitches.reserve(
                static_cast<std::size_t>(count));
            good = decodeRecords(
                r, name, count,
                [&](std::uint64_t i, ParseError &e) {
                    CSwitchEvent ev;
                    std::uint64_t d = 0, v = 0;
                    if (!getBounded(data, r.pos, limit, d, e))
                        return false;
                    if (d > sim::kNoTime - prev) {
                        e.offset = r.pos;
                        e.reason =
                            "timestamp delta overflows 64 bits";
                        return false;
                    }
                    ev.timestamp = prev + d;
                    prev = ev.timestamp;
                    if (!getBounded(data, r.pos, limit, v, e))
                        return false;
                    ev.cpu = static_cast<CpuId>(v);
                    if (!getBounded(data, r.pos, limit, v, e))
                        return false;
                    ev.oldPid = static_cast<Pid>(v);
                    if (!getBounded(data, r.pos, limit, v, e))
                        return false;
                    ev.oldTid = static_cast<Tid>(v);
                    if (!getBounded(data, r.pos, limit, v, e))
                        return false;
                    ev.newPid = static_cast<Pid>(v);
                    if (!getBounded(data, r.pos, limit, v, e))
                        return false;
                    ev.newTid = static_cast<Tid>(v);
                    if (!getBounded(data, r.pos, limit,
                                    ev.readyTime, e))
                        return false;
                    if (ev.readyTime > ev.timestamp) {
                        // Dispatch before the thread became
                        // runnable: wait math would wrap.
                        std::string reason =
                            "ready time " +
                            std::to_string(ev.readyTime) +
                            " after switch-in time " +
                            std::to_string(ev.timestamp);
                        if (r.options.mode == ParseMode::Strict) {
                            e.offset = r.pos;
                            e.reason = std::move(reason);
                            return false;
                        }
                        r.report.noteRepair(
                            r.makeError(name, i, r.pos,
                                        reason + " (clamped)"),
                            r.options.maxStoredErrors);
                        ev.readyTime = ev.timestamp;
                    }
                    bundle.cswitches.push_back(ev);
                    return true;
                });
            break;
          }

          case Section::GpuPackets: {
            SimTime prev = 0;
            bundle.gpuPackets.reserve(
                static_cast<std::size_t>(count));
            good = decodeRecords(
                r, name, count,
                [&](std::uint64_t, ParseError &e) {
                    GpuPacketEvent ev;
                    std::uint64_t d = 0, v = 0;
                    if (!getBounded(data, r.pos, limit, d, e))
                        return false;
                    if (d > sim::kNoTime - prev) {
                        e.offset = r.pos;
                        e.reason = "start delta overflows 64 bits";
                        return false;
                    }
                    ev.start = prev + d;
                    prev = ev.start;
                    if (!getBounded(data, r.pos, limit, d, e))
                        return false;
                    if (d > ev.start) {
                        e.offset = r.pos;
                        e.reason = "queue delta " +
                                   std::to_string(d) +
                                   " precedes time zero";
                        return false;
                    }
                    ev.queued = ev.start - d;
                    if (!getBounded(data, r.pos, limit, d, e))
                        return false;
                    if (d > sim::kNoTime - ev.start) {
                        e.offset = r.pos;
                        e.reason =
                            "finish delta overflows 64 bits";
                        return false;
                    }
                    ev.finish = ev.start + d;
                    if (!getBounded(data, r.pos, limit, v, e))
                        return false;
                    ev.pid = static_cast<Pid>(v);
                    if (!getBounded(data, r.pos, limit, v, e))
                        return false;
                    if (v >= kNumGpuEngines) {
                        e.offset = r.pos;
                        e.reason = "unknown GPU engine id " +
                                   std::to_string(v);
                        return false;
                    }
                    ev.engine = static_cast<GpuEngineId>(v);
                    if (!getBounded(data, r.pos, limit, v, e))
                        return false;
                    ev.packetId =
                        static_cast<std::uint32_t>(v);
                    if (!getBounded(data, r.pos, limit, v, e))
                        return false;
                    ev.queueSlot =
                        static_cast<std::uint8_t>(v);
                    bundle.gpuPackets.push_back(ev);
                    return true;
                });
            break;
          }

          case Section::Frames: {
            SimTime prev = 0;
            bundle.frames.reserve(
                static_cast<std::size_t>(count));
            good = decodeRecords(
                r, name, count,
                [&](std::uint64_t, ParseError &e) {
                    FrameEvent ev;
                    std::uint64_t d = 0, v = 0;
                    if (!getBounded(data, r.pos, limit, d, e))
                        return false;
                    if (d > sim::kNoTime - prev) {
                        e.offset = r.pos;
                        e.reason =
                            "timestamp delta overflows 64 bits";
                        return false;
                    }
                    ev.timestamp = prev + d;
                    prev = ev.timestamp;
                    if (!getBounded(data, r.pos, limit, v, e))
                        return false;
                    ev.pid = static_cast<Pid>(v);
                    if (!getBounded(data, r.pos, limit, v, e))
                        return false;
                    ev.frameId = static_cast<std::uint32_t>(v);
                    if (!getBounded(data, r.pos, limit, v, e))
                        return false;
                    ev.synthesized = v != 0;
                    bundle.frames.push_back(ev);
                    return true;
                });
            break;
          }

          case Section::ThreadLife:
            bundle.threadEvents.reserve(
                static_cast<std::size_t>(count));
            good = decodeRecords(
                r, name, count,
                [&](std::uint64_t, ParseError &e) {
                    ThreadLifeEvent ev;
                    std::uint64_t v = 0;
                    if (!getBounded(data, r.pos, limit,
                                    ev.timestamp, e))
                        return false;
                    if (!getBounded(data, r.pos, limit, v, e))
                        return false;
                    ev.pid = static_cast<Pid>(v);
                    if (!getBounded(data, r.pos, limit, v, e))
                        return false;
                    ev.tid = static_cast<Tid>(v);
                    if (!getBounded(data, r.pos, limit, v, e))
                        return false;
                    ev.created = v != 0;
                    if (!getBoundedString(data, r.pos, limit,
                                          ev.name, e))
                        return false;
                    bundle.threadEvents.push_back(ev);
                    return true;
                });
            break;

          case Section::ProcessLife:
            bundle.processEvents.reserve(
                static_cast<std::size_t>(count));
            good = decodeRecords(
                r, name, count,
                [&](std::uint64_t, ParseError &e) {
                    ProcessLifeEvent ev;
                    std::uint64_t v = 0;
                    if (!getBounded(data, r.pos, limit,
                                    ev.timestamp, e))
                        return false;
                    if (!getBounded(data, r.pos, limit, v, e))
                        return false;
                    ev.pid = static_cast<Pid>(v);
                    if (!getBounded(data, r.pos, limit, v, e))
                        return false;
                    ev.created = v != 0;
                    if (!getBoundedString(data, r.pos, limit,
                                          ev.name, e))
                        return false;
                    bundle.processEvents.push_back(ev);
                    return true;
                });
            break;

          case Section::Markers:
            bundle.markers.reserve(
                static_cast<std::size_t>(count));
            good = decodeRecords(
                r, name, count,
                [&](std::uint64_t, ParseError &e) {
                    MarkerEvent ev;
                    if (!getBounded(data, r.pos, limit,
                                    ev.timestamp, e))
                        return false;
                    if (!getBoundedString(data, r.pos, limit,
                                          ev.label, e))
                        return false;
                    bundle.markers.push_back(ev);
                    return true;
                });
            break;

          default:
            // Unreachable: unknown tags are rejected by the callers
            // before the count decode.
            good = false;
            break;
        }
    }
    if (!good)
        return false;
    if (r.pos != limit) {
        r.note(r.makeError(name, ParseError::kNoPosition, r.pos,
                           std::to_string(limit - r.pos) +
                               " trailing bytes in section"));
        return false;
    }
    return true;
}

/** Decode a version-3 body (the bytes past the magic) into a bundle. */
TraceBundle
decodeEtlBody(io::ByteSpan data, const ParseOptions &options,
              IngestReport &report)
{
    obs::Span ingestSpan("ingest.etl", obs::SpanKind::Ingest,
                         data.size());
    obs::counterAdd("ingest.etl.bytes",
                    static_cast<std::int64_t>(data.size()));
    TraceBundle bundle;
    EtlReader r{data, options, report};

    // Header: version and observation window. Defects here fail the
    // file in both modes — nothing downstream is trustworthy.
    std::uint64_t version = 0, value = 0;
    ParseError err;
    auto headerField = [&](const char *field,
                           std::uint64_t &out) {
        if (getBounded(data, r.pos, data.size(), out, err))
            return true;
        err.field = field;
        r.note(r.located(std::move(err), "header",
                         ParseError::kNoPosition));
        return false;
    };
    if (!headerField("version", version))
        return bundle;
    if (version != kEtlVersion) {
        r.note(r.makeError("header", ParseError::kNoPosition, 0,
                           "unsupported version " +
                               std::to_string(version) + " (want " +
                               std::to_string(kEtlVersion) + ")"));
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

    // Section frames, in file order. A defect inside a frame fails only
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

        // An unknown tag is diagnosed before its payload is touched:
        // the bytes mean nothing to this reader.
        bool good;
        if (std::strcmp(name, "Unknown") == 0) {
            r.note(r.makeError(
                name, ParseError::kNoPosition, tagPos,
                "unknown section tag " +
                    std::to_string(static_cast<unsigned>(tag))));
            good = false;
        } else {
            obs::Span sectionSpan("ingest.etl.section",
                                  obs::SpanKind::Ingest,
                                  limit - r.pos);
            good = decodeSectionBody(r, tag, name, tagPos, limit,
                                     bundle);
        }

        // Every defect above has already been noted; strict fails the
        // file here, lenient hops to the next frame via the length
        // prefix.
        if (!good) {
            if (!lenient)
                return bundle;
            r.pos = limit;
        }
    }
    return bundle;
}

} // namespace

void
putVarint(std::string &out, std::uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<char>((value & 0x7f) | 0x80));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
}

bool
tryGetVarint(std::string_view data, std::size_t &pos,
             std::uint64_t &value, ParseError &err)
{
    return getBounded(data, pos, data.size(), value, err);
}

std::uint64_t
getVarint(std::string_view data, std::size_t &pos)
{
    std::uint64_t value = 0;
    ParseError err;
    if (!tryGetVarint(data, pos, value, err))
        throw TraceParseError(std::move(err));
    return value;
}

void
writeEtl(const TraceBundle &bundle, std::ostream &out)
{
    auto defects = bundle.validateEncoding();
    if (!defects.empty())
        throw TraceParseError(defects.front());

    std::string body;

    putVarint(body, kEtlVersion);
    putVarint(body, bundle.startTime);
    putVarint(body, bundle.stopTime);
    putVarint(body, bundle.numLogicalCpus);

    std::string payload;

    putVarint(payload, bundle.processNames.size());
    // Sort pids so the encoding is deterministic.
    std::vector<Pid> pids;
    pids.reserve(bundle.processNames.size());
    for (const auto &[pid, name] : bundle.processNames)
        pids.push_back(pid);
    std::sort(pids.begin(), pids.end());
    for (Pid pid : pids) {
        putVarint(payload, pid);
        putString(payload, bundle.processNames.at(pid));
    }
    putSection(body, Section::ProcessNames, payload);

    payload.clear();
    putVarint(payload, bundle.cswitches.size());
    SimTime prev = 0;
    for (const auto &e : bundle.cswitches) {
        putVarint(payload, e.timestamp - prev);
        prev = e.timestamp;
        putVarint(payload, e.cpu);
        putVarint(payload, e.oldPid);
        putVarint(payload, e.oldTid);
        putVarint(payload, e.newPid);
        putVarint(payload, e.newTid);
        putVarint(payload, e.readyTime);
    }
    putSection(body, Section::CSwitch, payload);

    payload.clear();
    putVarint(payload, bundle.gpuPackets.size());
    prev = 0;
    for (const auto &e : bundle.gpuPackets) {
        putVarint(payload, e.start - prev);
        prev = e.start;
        putVarint(payload, e.start - e.queued);
        putVarint(payload, e.finish - e.start);
        putVarint(payload, e.pid);
        putVarint(payload, static_cast<std::uint8_t>(e.engine));
        putVarint(payload, e.packetId);
        putVarint(payload, e.queueSlot);
    }
    putSection(body, Section::GpuPackets, payload);

    payload.clear();
    putVarint(payload, bundle.frames.size());
    prev = 0;
    for (const auto &e : bundle.frames) {
        putVarint(payload, e.timestamp - prev);
        prev = e.timestamp;
        putVarint(payload, e.pid);
        putVarint(payload, e.frameId);
        putVarint(payload, e.synthesized ? 1 : 0);
    }
    putSection(body, Section::Frames, payload);

    payload.clear();
    putVarint(payload, bundle.threadEvents.size());
    for (const auto &e : bundle.threadEvents) {
        putVarint(payload, e.timestamp);
        putVarint(payload, e.pid);
        putVarint(payload, e.tid);
        putVarint(payload, e.created ? 1 : 0);
        putString(payload, e.name);
    }
    putSection(body, Section::ThreadLife, payload);

    payload.clear();
    putVarint(payload, bundle.processEvents.size());
    for (const auto &e : bundle.processEvents) {
        putVarint(payload, e.timestamp);
        putVarint(payload, e.pid);
        putVarint(payload, e.created ? 1 : 0);
        putString(payload, e.name);
    }
    putSection(body, Section::ProcessLife, payload);

    payload.clear();
    putVarint(payload, bundle.markers.size());
    for (const auto &e : bundle.markers) {
        putVarint(payload, e.timestamp);
        putString(payload, e.label);
    }
    putSection(body, Section::Markers, payload);

    body.push_back(static_cast<char>(Section::End));

    out.write(kMagic, sizeof(kMagic));
    out.write(body.data(), static_cast<std::streamsize>(body.size()));
    if (!out)
        fatal("writeEtl: stream write failed");
}

void
writeEtl(const TraceBundle &bundle, const std::string &path)
{
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal("writeEtl: cannot open " + path);
    writeEtl(bundle, out);
}

TraceBundle
decodeEtl(io::ByteSpan data, const ParseOptions &options,
          IngestReport &report)
{
    report = IngestReport{};
    report.source =
        options.source.empty() ? "<stream>" : options.source;
    report.mode = options.mode;

    if (data.size() < sizeof(kMagic) ||
        data.compare(0, sizeof(kMagic),
                     std::string_view(kMagic, sizeof(kMagic))) != 0) {
        ParseError err;
        err.source = report.source;
        err.section = "header";
        err.offset = 0;
        err.reason = data.size() < sizeof(kMagic) ? "truncated magic"
                                                  : "bad magic";
        report.note(std::move(err), options.maxStoredErrors);
        return TraceBundle{};
    }
    return decodeEtlBody(data.substr(sizeof(kMagic)), options, report);
}

TraceBundle
readEtl(std::istream &in, const ParseOptions &options,
        IngestReport &report)
{
    report = IngestReport{};
    report.source =
        options.source.empty() ? "<stream>" : options.source;
    report.mode = options.mode;

    TraceBundle bundle;

    char magic[8];
    in.read(magic, sizeof(magic));
    if (!in || !std::equal(magic, magic + 8, kMagic)) {
        ParseError err;
        err.source = report.source;
        err.section = "header";
        err.offset = 0;
        err.reason = in ? "bad magic" : "truncated magic";
        report.note(std::move(err), options.maxStoredErrors);
        return bundle;
    }

    // Slurp the body directly, sizing via seek/tell when the stream
    // supports it — no intermediate ostringstream copy.
    std::string data;
    auto cur = in.tellg();
    if (cur != std::istream::pos_type(-1)) {
        in.seekg(0, std::ios::end);
        auto end = in.tellg();
        in.seekg(cur);
        if (end > cur)
            data.reserve(static_cast<std::size_t>(end - cur));
    }
    char buf[1 << 16];
    while (in.read(buf, sizeof(buf)) || in.gcount() > 0)
        data.append(buf, static_cast<std::size_t>(in.gcount()));

    return decodeEtlBody(data, options, report);
}

TraceBundle
readEtl(std::istream &in)
{
    IngestReport report;
    TraceBundle bundle = readEtl(in, ParseOptions{}, report);
    if (!report.ok())
        throw TraceParseError(report.errors.front());
    return bundle;
}

} // namespace deskpar::trace

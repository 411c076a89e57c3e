#include "trace/container.hh"

#include <algorithm>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <vector>

#include "obs/obs.hh"
#include "sim/logging.hh"
#include "trace/merge.hh"

namespace deskpar::trace {

const char *
sectionName(Section tag)
{
    static const char *const kNames[] = {
        "Unknown",    "ProcessNames", "CSwitch",     "GpuPackets",
        "Frames",     "ThreadLife",   "ProcessLife", "Markers"};
    auto t = static_cast<std::uint8_t>(tag);
    if (tag == Section::End)
        return "End";
    return t < std::size(kNames) ? kNames[t] : "Unknown";
}

ParseError
ContainerReader::located(ParseError err, const char *section,
                         std::uint64_t record) const
{
    err.source = report.source;
    err.section = section;
    err.record = record;
    if (err.offset != ParseError::kNoPosition)
        err.offset += kMagicBytes;
    return err;
}

ParseError
ContainerReader::makeError(const char *section, std::uint64_t record,
                           std::size_t bodyPos, std::string reason) const
{
    ParseError err;
    err.offset = bodyPos;
    err.reason = std::move(reason);
    return located(std::move(err), section, record);
}

void
ContainerReader::note(ParseError err)
{
    report.note(std::move(err), options.maxStoredErrors);
}

namespace {

/**
 * Header: version, observation window and CPU count. Any defect fails
 * the file in both modes — nothing downstream is trustworthy.
 */
bool
decodeHeader(ContainerReader &r, TraceBundle &bundle)
{
    std::uint64_t version = 0, value = 0;
    auto headerField = [&](const char *field, std::uint64_t &out) {
        ParseError err;
        if (getBounded(r.data, r.pos, r.data.size(), out, err))
            return true;
        err.field = field;
        r.note(r.located(std::move(err), "header",
                         ParseError::kNoPosition));
        return false;
    };
    if (!headerField("version", version))
        return false;
    if (version != r.format.version) {
        r.note(r.makeError("header", ParseError::kNoPosition, 0,
                           "unsupported version " +
                               std::to_string(version) + " (want " +
                               std::to_string(r.format.version) + ")"));
        return false;
    }
    if (!headerField("startTime", bundle.startTime) ||
        !headerField("stopTime", value))
        return false;
    bundle.stopTime = value;
    std::size_t cpusPos = r.pos;
    if (!headerField("numLogicalCpus", value))
        return false;
    if (value > kMaxLogicalCpus) {
        ParseError err = r.makeError(
            "header", ParseError::kNoPosition, cpusPos,
            "CPU count " + std::to_string(value) + " exceeds " +
                std::to_string(kMaxLogicalCpus));
        err.field = "numLogicalCpus";
        r.note(std::move(err));
        return false;
    }
    bundle.numLogicalCpus = static_cast<std::uint32_t>(value);
    return true;
}

/** Validate, then encode magic, header, sections and End. */
std::string
encodeImage(const ContainerFormat &format, const TraceBundle &bundle,
            const std::string &source)
{
    auto defects = bundle.validateEncoding();
    if (!defects.empty()) {
        ParseError err = std::move(defects.front());
        err.source = source;
        throw TraceParseError(std::move(err));
    }
    std::string image(format.magic, kMagicBytes);
    putVarint(image, format.version);
    putVarint(image, bundle.startTime);
    putVarint(image, bundle.stopTime);
    putVarint(image, bundle.numLogicalCpus);
    format.putSections(bundle, image);
    image.push_back(static_cast<char>(Section::End));
    return image;
}

} // namespace

void
walkSections(ContainerReader &r, const SectionDecoder &decode)
{
    io::ByteSpan data = r.data;
    bool lenient = r.options.mode == ParseMode::Lenient;
    while (true) {
        if (r.pos >= data.size()) {
            r.note(r.makeError("trailer", ParseError::kNoPosition,
                               r.pos, "missing end section"));
            r.report.salvaged = lenient;
            return;
        }
        auto tagPos = r.pos;
        auto tag = static_cast<Section>(
            static_cast<std::uint8_t>(data[r.pos++]));
        if (tag == Section::End)
            return;

        ParseError ferr;
        std::uint64_t length = 0;
        if (!getBounded(data, r.pos, data.size(), length, ferr)) {
            r.note(r.located(std::move(ferr), "frame",
                             ParseError::kNoPosition));
            r.report.salvaged = lenient;
            return;
        }
        const char *name = sectionName(tag);
        if (length > data.size() - r.pos) {
            r.note(r.makeError(name, ParseError::kNoPosition, r.pos,
                               "section length " +
                                   std::to_string(length) +
                                   " exceeds remaining input"));
            r.report.salvaged = lenient;
            return;
        }
        std::size_t limit = r.pos + static_cast<std::size_t>(length);

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
            obs::Span sectionSpan(r.format.sectionSpan,
                                  obs::SpanKind::Ingest, limit - r.pos);
            good = decode(tag, name, tagPos, limit);
        }

        // Every defect above has already been noted; strict fails the
        // file here, lenient hops to the next frame via the length
        // prefix.
        if (!good) {
            if (!lenient)
                return;
            r.pos = limit;
        }
    }
}

bool
hasMagic(io::ByteSpan data, const ContainerFormat &format)
{
    return data.size() >= kMagicBytes &&
           data.compare(0, kMagicBytes,
                        io::ByteSpan(format.magic, kMagicBytes)) == 0;
}

TraceBundle
decodeContainer(const ContainerFormat &format, io::ByteSpan data,
                const ParseOptions &options, IngestReport &report)
{
    report = IngestReport{};
    report.source =
        options.source.empty() ? "<stream>" : options.source;
    report.mode = options.mode;

    if (!hasMagic(data, format)) {
        ParseError err;
        err.source = report.source;
        err.section = "header";
        err.offset = 0;
        err.reason = data.size() < kMagicBytes ? "truncated magic"
                                               : "bad magic";
        report.note(std::move(err), options.maxStoredErrors);
        return TraceBundle{};
    }
    TraceBundle bundle;
    {
        io::ByteSpan body = data.substr(kMagicBytes);
        obs::Span ingestSpan(format.span, obs::SpanKind::Ingest,
                             body.size());
        obs::counterAdd(format.bytesCounter,
                        static_cast<std::int64_t>(body.size()));
        ContainerReader r{format, body, options, report};
        if (decodeHeader(r, bundle))
            format.decodeSections(r, bundle);
    }
    canonicalize(bundle);
    return bundle;
}

std::uint64_t
putRecords(const TraceBundle &bundle, Section tag, std::string &out,
           const std::function<void()> &afterRecord)
{
    auto done = [&] {
        if (afterRecord)
            afterRecord();
    };
    switch (tag) {
      case Section::ProcessNames: {
        std::vector<Pid> pids;
        pids.reserve(bundle.processNames.size());
        for (const auto &[pid, name] : bundle.processNames)
            pids.push_back(pid);
        std::sort(pids.begin(), pids.end());
        for (Pid pid : pids) {
            putVarint(out, pid);
            putString(out, bundle.processNames.at(pid));
            done();
        }
        return pids.size();
      }
      case Section::ThreadLife:
        for (const auto &e : bundle.threadEvents) {
            putVarint(out, e.timestamp);
            putVarint(out, e.pid);
            putVarint(out, e.tid);
            putVarint(out, e.created ? 1 : 0);
            putString(out, e.name);
            done();
        }
        return bundle.threadEvents.size();
      case Section::ProcessLife:
        for (const auto &e : bundle.processEvents) {
            putVarint(out, e.timestamp);
            putVarint(out, e.pid);
            putVarint(out, e.created ? 1 : 0);
            putString(out, e.name);
            done();
        }
        return bundle.processEvents.size();
      case Section::Markers:
        for (const auto &e : bundle.markers) {
            putVarint(out, e.timestamp);
            putString(out, e.label);
            done();
        }
        return bundle.markers.size();
      default:
        return 0;
    }
}

bool
getRecord(Section tag, io::ByteSpan data, std::size_t &p,
          std::size_t lim, TraceBundle &out, ParseError &e)
{
    switch (tag) {
      case Section::ProcessNames: {
        std::uint64_t pid = 0;
        std::string name;
        if (!getBounded(data, p, lim, pid, e) ||
            !getBoundedString(data, p, lim, name, e))
            return false;
        out.processNames[static_cast<Pid>(pid)] = std::move(name);
        return true;
      }
      case Section::ThreadLife: {
        ThreadLifeEvent ev;
        std::uint64_t pid = 0, tid = 0, created = 0;
        if (!getBounded(data, p, lim, ev.timestamp, e) ||
            !getBounded(data, p, lim, pid, e) ||
            !getBounded(data, p, lim, tid, e) ||
            !getBounded(data, p, lim, created, e) ||
            !getBoundedString(data, p, lim, ev.name, e))
            return false;
        ev.pid = static_cast<Pid>(pid);
        ev.tid = static_cast<Tid>(tid);
        ev.created = created != 0;
        out.threadEvents.push_back(std::move(ev));
        return true;
      }
      case Section::ProcessLife: {
        ProcessLifeEvent ev;
        std::uint64_t pid = 0, created = 0;
        if (!getBounded(data, p, lim, ev.timestamp, e) ||
            !getBounded(data, p, lim, pid, e) ||
            !getBounded(data, p, lim, created, e) ||
            !getBoundedString(data, p, lim, ev.name, e))
            return false;
        ev.pid = static_cast<Pid>(pid);
        ev.created = created != 0;
        out.processEvents.push_back(std::move(ev));
        return true;
      }
      case Section::Markers: {
        MarkerEvent ev;
        if (!getBounded(data, p, lim, ev.timestamp, e) ||
            !getBoundedString(data, p, lim, ev.label, e))
            return false;
        out.markers.push_back(std::move(ev));
        return true;
      }
      default:
        e.reason = "record-major decode of a columnar section";
        return false;
    }
}

void
writeContainer(const ContainerFormat &format, const TraceBundle &bundle,
               std::ostream &out)
{
    std::string image = encodeImage(format, bundle, {});
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
    if (!out)
        fatal(std::string(format.writer) + ": stream write failed");
}

void
writeContainer(const ContainerFormat &format, const TraceBundle &bundle,
               const std::string &path)
{
    std::string image = encodeImage(format, bundle, path);
    std::ofstream out(path, std::ios::binary);
    if (!out)
        fatal(std::string(format.writer) + ": cannot open " + path);
    out.write(image.data(), static_cast<std::streamsize>(image.size()));
    out.close();
    if (out)
        return;
    std::error_code ec;
    std::filesystem::remove(path, ec);
    fatal(std::string(format.writer) + ": cannot write " + path);
}

} // namespace deskpar::trace

/**
 * @file
 * The container skeleton shared by both binary trace formats, .etl v3
 * (etl.hh) and .etlc (etlc.hh).
 *
 * Both files are an 8-byte magic, a varint header (version, window
 * start and stop, CPU count), then one section per event stream framed
 * as `tag byte, varint payload length, payload`, closed by an End tag.
 * Integers are LEB128 varints. This module owns that skeleton once:
 * the section vocabulary, the byte primitives, the diagnostic locator,
 * the magic and header checks, the serial frame walk with its strict
 * stop and lenient hop, the record-major codecs of the four
 * string-bearing sections, and the writer's validate-then-encode
 * frame. A format supplies a ContainerFormat: its magic and version,
 * its obs names, and two callbacks that encode and decode its section
 * payloads (record-major for .etl, checksummed column blocks for
 * .etlc).
 *
 * Internal to the trace layer; the .dpidx spill and the sweep
 * checkpoint reuse the varint primitives for their own framing.
 */

#ifndef DESKPAR_TRACE_CONTAINER_HH
#define DESKPAR_TRACE_CONTAINER_HH

#include <cstdint>
#include <functional>
#include <iosfwd>
#include <string>

#include "trace/io.hh"
#include "trace/parse.hh"
#include "trace/session.hh"

namespace deskpar::trace {

/** Section tags, the same in both containers. */
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

/** Diagnostic name of @p tag; "Unknown" for a tag no format defines. */
const char *sectionName(Section tag);

/** Length of either container's magic. */
inline constexpr std::size_t kMagicBytes = 8;

/** @{ Byte primitives. Inline: the .etl row loop calls them per field. */

/** Append a LEB128-encoded unsigned integer to @p out. */
inline void
putVarint(std::string &out, std::uint64_t value)
{
    while (value >= 0x80) {
        out.push_back(static_cast<char>((value & 0x7f) | 0x80));
        value >>= 7;
    }
    out.push_back(static_cast<char>(value));
}

/** Append a varint length and the bytes of @p s. */
inline void
putString(std::string &out, const std::string &s)
{
    putVarint(out, s.size());
    out.append(s);
}

/** Append one `tag, varint length, payload` section frame. */
inline void
putSection(std::string &out, Section tag, const std::string &payload)
{
    out.push_back(static_cast<char>(tag));
    putVarint(out, payload.size());
    out.append(payload);
}

/**
 * Bounded no-throw varint decode from @p data at @p pos, which it
 * advances; @p limit is the end of the current frame. False on
 * truncated or overlong input, with @p err holding the failing offset
 * relative to @p data (a ContainerReader rebases it past the magic).
 */
inline bool
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
inline bool
getBoundedString(io::ByteSpan data, std::size_t &pos, std::size_t limit,
                 std::string &s, ParseError &err)
{
    std::uint64_t len = 0;
    if (!getBounded(data, pos, limit, len, err))
        return false;
    if (len > limit - pos) {
        err.offset = pos;
        err.reason = "truncated string (length " + std::to_string(len) +
                     ", " + std::to_string(limit - pos) +
                     " bytes left)";
        return false;
    }
    s.assign(data.data() + pos, static_cast<std::size_t>(len));
    pos += static_cast<std::size_t>(len);
    return true;
}

/**
 * Decode one delta varint and add it to @p time, refusing a sum past
 * 64 bits ("<what> delta overflows 64 bits", at the byte after the
 * varint). The timestamp columns of both containers are delta-coded.
 */
inline bool
getDelta(io::ByteSpan data, std::size_t &pos, std::size_t limit,
         SimTime &time, const char *what, ParseError &err)
{
    std::uint64_t d = 0;
    if (!getBounded(data, pos, limit, d, err))
        return false;
    if (d > sim::kNoTime - time) {
        err.offset = pos;
        err.reason = std::string(what) + " delta overflows 64 bits";
        return false;
    }
    time += d;
    return true;
}
/** @} */

struct ContainerReader;

/** What tells the two containers apart; one constant per format. */
struct ContainerFormat
{
    /** The kMagicBytes-long magic. */
    const char *magic;
    std::uint32_t version;
    /** obs names: the whole-body span, its byte counter, the span
     *  around each section decoded by walkSections. */
    const char *span;
    const char *bytesCounter;
    const char *sectionSpan;
    /** Names the writer in I/O failures ("writeEtl"). */
    const char *writer;
    /** Append every section frame of @p bundle to @p image. */
    void (*putSections)(const TraceBundle &bundle, std::string &image);
    /** Decode the sections, r.pos at the first frame, into @p bundle. */
    void (*decodeSections)(ContainerReader &r, TraceBundle &bundle);
};

/**
 * Decoding state of one container body (the file bytes past the
 * magic): the span, the report under construction, the options and
 * the cursor. Every diagnostic it locates is rebased to a whole-file
 * offset.
 */
struct ContainerReader
{
    const ContainerFormat &format;
    io::ByteSpan data;
    const ParseOptions &options;
    IngestReport &report;

    std::size_t pos = 0;

    /** Stamp source, section and record; rebase the offset. */
    ParseError located(ParseError err, const char *section,
                       std::uint64_t record) const;

    /** A located error at body position @p bodyPos. */
    ParseError makeError(const char *section, std::uint64_t record,
                         std::size_t bodyPos, std::string reason) const;

    void note(ParseError err);
};

/**
 * Body decoder of one known section: r.pos at its payload, @p limit
 * at the frame end, @p tagPos at its tag byte. False when the section
 * is defective, with its diagnostics already noted.
 */
using SectionDecoder = std::function<bool(
    Section tag, const char *name, std::size_t tagPos, std::size_t limit)>;

/**
 * Walk the section frames from r.pos to the End tag, serially, calling
 * @p decode on each known section inside a format.sectionSpan span.
 * A missing End, an unreadable frame length or a frame past the input
 * ends the walk (lenient marks the report salvaged); an unknown tag is
 * diagnosed before its payload is touched. A defective frame stops a
 * strict walk and is hopped over by its length prefix in lenient mode.
 */
void walkSections(ContainerReader &r, const SectionDecoder &decode);

/** True when @p data begins with @p format's magic. */
bool hasMagic(io::ByteSpan data, const ContainerFormat &format);

/**
 * The decode skeleton: reset @p report, refuse a short or foreign
 * magic, decode the header under format.span (a bad version or a CPU
 * count above kMaxLogicalCpus fails the file in both modes), hand the
 * sections to format.decodeSections, and canonicalize (merge.hh).
 */
TraceBundle decodeContainer(const ContainerFormat &format,
                            io::ByteSpan data,
                            const ParseOptions &options,
                            IngestReport &report);

/** @{ Record-major codecs of ProcessNames, ThreadLife, ProcessLife and
 *  Markers: the record bytes .etl keeps per section and .etlc per
 *  block. */

/**
 * Append the records of record-major section @p tag to @p out, one at
 * a time (ProcessNames in ascending pid order, so the encoding is
 * deterministic), calling @p afterRecord, when set, after each.
 * Returns the record count.
 */
std::uint64_t putRecords(const TraceBundle &bundle, Section tag,
                         std::string &out,
                         const std::function<void()> &afterRecord = {});

/**
 * Decode one record of record-major section @p tag at @p pos (bounded
 * by @p limit) and add it to @p out. False with @p err set on a
 * defect.
 */
bool getRecord(Section tag, io::ByteSpan data, std::size_t &pos,
               std::size_t limit, TraceBundle &out, ParseError &err);
/** @} */

/**
 * Encode @p bundle as a whole @p format image and write it to @p out.
 * Throws TraceParseError when the bundle fails validateEncoding()
 * (the unsigned delta encodings would wrap), FatalError when the
 * stream write fails.
 */
void writeContainer(const ContainerFormat &format,
                    const TraceBundle &bundle, std::ostream &out);

/**
 * Encode @p bundle in memory first, then create @p path and write it:
 * a refused bundle (its TraceParseError names @p path) or a failed
 * write leaves no file behind, and an existing file is kept on refusal.
 */
void writeContainer(const ContainerFormat &format,
                    const TraceBundle &bundle, const std::string &path);

} // namespace deskpar::trace

#endif // DESKPAR_TRACE_CONTAINER_HH

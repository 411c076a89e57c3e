/**
 * @file
 * Binary trace container: the .etl-equivalent on-disk format.
 *
 * Version 3 keeps the skeleton it shares with .etlc in
 * trace/container.hh: the magic "DPETL\x01\x00\x00", a varint header
 * (version, window, CPU count), one `tag byte, varint payload length,
 * payload` section per event stream and an End tag, so a lenient
 * reader can skip a corrupt or unknown section and keep decoding the
 * rest of the file. The name, lifecycle and marker sections use the
 * shared record-major codecs too. etl.cc holds only the payloads of
 * the CSwitch, GpuPackets and Frames sections: `varint count,
 * records`, with timestamps delta-encoded within the section, which
 * keeps multi-minute traces compact.
 *
 * Reading is recoverable (parse.hh): decodeEtl never throws on
 * malformed content; strict mode stops at the first defect, lenient
 * mode drops the defective section remainder, counts it, and
 * salvages everything else. writeEtl validates stream
 * monotonicity (the delta encoding is unsigned) and reports the
 * offending record index as a structured TraceParseError.
 *
 * The one reader is decodeEtl(ByteSpan) over a memory-mapped
 * file (trace::decodeTraceFile maps it). It decodes the sections
 * serially and ignores ParseOptions::threads: the CSwitch section
 * holds most of the bytes, so a section fan-out is one long task plus
 * a merge that copies every event again, and it measured slower than
 * one thread. See DESIGN.md section 11.
 */

#ifndef DESKPAR_TRACE_ETL_HH
#define DESKPAR_TRACE_ETL_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/io.hh"
#include "trace/parse.hh"
#include "trace/session.hh"

namespace deskpar::trace {

/** Current on-disk format version. */
inline constexpr std::uint32_t kEtlVersion = 3;

/**
 * Serialize @p bundle to @p path.
 * Throws FatalError on I/O failure, TraceParseError (naming @p path,
 * the offending section and record index) when the window is
 * inverted, an event stream is not sorted by timestamp or a GPU
 * packet has queued > start or finish < start — the unsigned delta
 * encoding would otherwise round-trip wrapped values silently. The
 * image is encoded before the file is created, so a refused or failed
 * write leaves no file behind.
 */
void writeEtl(const TraceBundle &bundle, const std::string &path);

/** Serialize @p bundle to a stream (for tests / in-memory use). */
void writeEtl(const TraceBundle &bundle, std::ostream &out);

/**
 * Decode a whole .etl image held in memory (usually a MappedFile's
 * bytes), serially, reporting malformed content per @p options
 * instead of throwing: strict mode stops at the first defect (discard
 * the bundle when !report.ok()); lenient mode skips what it must and
 * returns everything that decoded cleanly, canonicalized (merge.hh).
 * A header the reader refuses (bad magic or version, a CPU count
 * above kMaxLogicalCpus) fails the file in both modes. Files open
 * through trace::decodeTraceFile (trace/ingest.hh).
 */
TraceBundle decodeEtl(io::ByteSpan data, const ParseOptions &options,
                      IngestReport &report);

} // namespace deskpar::trace

#endif // DESKPAR_TRACE_ETL_HH

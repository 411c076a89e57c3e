/**
 * @file
 * Binary trace container: the .etl-equivalent on-disk format.
 *
 * Layout (version 3): an 8-byte magic ("DPETL\x01\x00\x00"), a header
 * (version, window, CPU count), then one section per event stream,
 * each framed as `tag byte, varint payload length, payload`, closed
 * by an End tag. Integers use LEB128 varints; timestamps within a
 * section are delta-encoded, which keeps multi-minute traces compact.
 * The per-section length framing lets a lenient reader skip a corrupt
 * or unknown section and keep decoding the rest of the file.
 *
 * Reading is recoverable (parse.hh): the report-returning readers
 * never throw on malformed content; strict mode stops at the first
 * defect, lenient mode drops the defective section remainder, counts
 * it, and salvages everything else. writeEtl validates stream
 * monotonicity (the delta encoding is unsigned) and reports the
 * offending record index as a structured TraceParseError.
 *
 * The production reader is decodeEtl(ByteSpan) over a memory-mapped
 * file (trace::decodeTraceFile maps it). It decodes the sections
 * serially and ignores ParseOptions::threads: the CSwitch section
 * holds most of the bytes, so a section fan-out is one long task plus
 * a merge that copies every event again, and it measured slower than
 * one thread. The istream readers run the same body decoder over a
 * slurped copy. See DESIGN.md section 11.
 */

#ifndef DESKPAR_TRACE_ETL_HH
#define DESKPAR_TRACE_ETL_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "trace/io.hh"
#include "trace/parse.hh"
#include "trace/session.hh"

namespace deskpar::trace {

/** Current on-disk format version. */
inline constexpr std::uint32_t kEtlVersion = 3;

/**
 * Serialize @p bundle to @p path.
 * Throws FatalError on I/O failure, TraceParseError (naming the
 * offending section and record index) when an event stream is not
 * sorted by timestamp or a GPU packet has queued > start or
 * finish < start — the unsigned delta encoding would otherwise
 * round-trip wrapped values silently.
 */
void writeEtl(const TraceBundle &bundle, const std::string &path);

/** Serialize @p bundle to a stream (for tests / in-memory use). */
void writeEtl(const TraceBundle &bundle, std::ostream &out);

/**
 * Read a bundle, reporting malformed content per @p options instead
 * of throwing: strict mode stops at the first defect (discard the
 * bundle when !report.ok()); lenient mode skips what it must and
 * returns everything that decoded cleanly.
 */
TraceBundle readEtl(std::istream &in, const ParseOptions &options,
                    IngestReport &report);

/**
 * Decode a whole .etl image held in memory (usually a MappedFile's
 * bytes), serially. Same recoverable contract as readEtl(istream)
 * and byte-identical output.
 */
TraceBundle decodeEtl(io::ByteSpan data, const ParseOptions &options,
                      IngestReport &report);

/**
 * Legacy strict reader: throws TraceParseError (a FatalError) on any
 * malformed or mismatched content. Files open through
 * trace::decodeTraceFile (trace/ingest.hh).
 */
TraceBundle readEtl(std::istream &in);

/** @{ Low-level encoding helpers (exposed for tests). */

/** Append a LEB128-encoded unsigned integer to @p out. */
void putVarint(std::string &out, std::uint64_t value);

/**
 * Decode a LEB128 varint from @p data starting at @p pos; advances
 * @p pos. Throws TraceParseError on truncated or overlong input.
 */
std::uint64_t getVarint(std::string_view data, std::size_t &pos);

/**
 * No-throw varint decode: false (with @p err located at the failing
 * byte offset) on truncated or overlong input.
 */
bool tryGetVarint(std::string_view data, std::size_t &pos,
                  std::uint64_t &value, ParseError &err);
/** @} */

} // namespace deskpar::trace

#endif // DESKPAR_TRACE_ETL_HH

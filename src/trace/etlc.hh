/**
 * @file
 * Block-compressed columnar trace container: the .etlc v1 format.
 *
 * .etl v3 (etl.hh) framed each event stream as one monolithic
 * record-major section; compact, but a server holding thousands of
 * traces pays for it twice — absolute ready-time varints dominate the
 * bytes, and a section is the smallest unit of parallel decode and of
 * lenient recovery. .etlc keeps the outer v3 skeleton (8-byte magic,
 * varint header, `tag, varint length, payload` sections, End tag) and
 * replaces every section payload with a sequence of independently
 * decodable blocks:
 *
 *   payload := varint record-count, varint block-count, block...
 *   block   := varint records, varint raw-length, varint
 *              compressed-length (0 = stored), CRC32C (4 bytes, LE,
 *              over the stored bytes), bytes
 *
 * Inside a block the events are column-major: timestamps restart
 * from zero per block (delta varints), ready times are stored as the
 * tiny wait `timestamp - readyTime` instead of v3's absolute varint,
 * and pid/tid columns go through small per-block sorted dictionaries.
 * The columns are then squeezed by an in-repo LZ77 byte compressor
 * (16-bit offsets, the block is the window) — no external codec
 * dependency. Blocks target ~64 KiB uncompressed.
 *
 * Because every block carries its own base timestamp, record count,
 * lengths, and checksum, blocks decode independently: the production
 * reader sizes the event vectors once from the section totals and
 * fans all blocks of all sections out on sim/parallel.hh, each block
 * writing its events straight into its own slice. Any defect sends
 * the whole body through the serial reader instead, so output and
 * diagnostics are byte-identical at any DESKPAR_JOBS. A corrupt
 * block is rejected in strict mode and skipped — with a structured
 * Diagnostic and exact skip accounting — in lenient mode, reusing the
 * v3 section-skip recovery model at block granularity.
 */

#ifndef DESKPAR_TRACE_ETLC_HH
#define DESKPAR_TRACE_ETLC_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

#include "trace/io.hh"
#include "trace/parse.hh"
#include "trace/session.hh"

namespace deskpar::trace {

/** Current .etlc format version. */
inline constexpr std::uint32_t kEtlcVersion = 1;

/** Uncompressed block-size target (bytes). */
inline constexpr std::size_t kEtlcBlockBytes = 1 << 16;

/**
 * Hard cap on one block's declared uncompressed length. Blocks are
 * written at ~64 KiB; anything claiming more than this is corrupt
 * (an inflated length field must not balloon the decode buffer).
 */
inline constexpr std::size_t kEtlcMaxBlockBytes = 1 << 22;

/** True when @p data begins with the .etlc magic. */
bool isEtlcData(io::ByteSpan data);

/**
 * Serialize @p bundle as .etlc. Same contract as writeEtl: throws
 * FatalError on I/O failure and TraceParseError (naming the section
 * and record) when the bundle fails validateEncoding() — disordered
 * streams or inverted GPU/ready times would corrupt the unsigned
 * delta encoding.
 */
void writeEtlc(const TraceBundle &bundle, std::ostream &out);
void writeEtlc(const TraceBundle &bundle, const std::string &path);

/**
 * Decode a whole .etlc image held in memory (usually a MappedFile's
 * bytes), in place and block-parallel when the framing is regular and
 * its declared totals fit the file's size. Recoverable per
 * @p options: strict mode stops at the first defective block; lenient
 * mode skips defective blocks (later blocks still decode — each block
 * restarts its timestamp base) and defective section frames, counting
 * and reporting every drop. Output is byte-identical at every thread
 * count.
 */
TraceBundle decodeEtlc(io::ByteSpan data, const ParseOptions &options,
                       IngestReport &report);

/** @{ Building blocks exposed for tests, tools, and the fault corpus. */

/** CRC32C (Castagnoli, poly 0x82F63B78), table-driven software. */
std::uint32_t crc32c(io::ByteSpan data);

/**
 * Compress @p raw with the .etlc block compressor (greedy LZ77,
 * 16-bit offsets; the caller keeps blocks within 64 KiB-ish so every
 * offset is reachable). The output is only useful with the paired
 * decompressor; it may be larger than the input on incompressible
 * bytes (the writer then stores the block raw).
 */
std::string etlcCompress(io::ByteSpan raw);

/**
 * Decompress an etlcCompress() stream, expecting exactly @p rawLen
 * output bytes. Fully bounds-checked: returns false with @p reason
 * set on any malformed input (never reads or writes out of range).
 * The caller must still compare out.size() with the declared length.
 */
bool etlcDecompress(io::ByteSpan compressed, std::size_t rawLen,
                    std::string &out, std::string &reason);

/**
 * One block frame located by a structural scan of an .etlc image —
 * the fault corpus and the tests use this to aim mutations at block
 * anatomy (checksums, length fields, final-block bytes). Offsets are
 * absolute file offsets.
 */
struct EtlcBlockRef
{
    /** Section tag byte the block belongs to. */
    std::uint8_t section = 0;
    /** Offset of the block frame (the records varint). */
    std::size_t framePos = 0;
    /** Offset of the raw-length varint. */
    std::size_t rawLenPos = 0;
    /** Offset of the 4-byte CRC32C field. */
    std::size_t crcPos = 0;
    /** Offset and length of the stored (possibly compressed) bytes. */
    std::size_t dataPos = 0;
    std::size_t dataLen = 0;
    /** Declared record count and uncompressed length. */
    std::uint64_t records = 0;
    std::uint64_t rawLen = 0;
};

/**
 * Walk the section and block framing of an .etlc image. Returns the
 * blocks in file order, or an empty vector when the framing is not
 * perfectly regular (the scan validates structure only, not block
 * contents).
 */
std::vector<EtlcBlockRef> etlcScanBlocks(io::ByteSpan data);
/** @} */

} // namespace deskpar::trace

#endif // DESKPAR_TRACE_ETLC_HH

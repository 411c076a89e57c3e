/**
 * @file
 * A structural scan of .etlc block framing, so the fault injector and
 * the .etlc tests can aim mutations at block anatomy (checksums,
 * length fields, final-block bytes). No production path needs block
 * offsets, so the scan lives under tests/, written on the container
 * primitives (trace/container.hh).
 */

#ifndef DESKPAR_TESTS_SUPPORT_ETLC_SCAN_HH
#define DESKPAR_TESTS_SUPPORT_ETLC_SCAN_HH

#include <cstdint>
#include <vector>

#include "trace/io.hh"

namespace deskpar::trace {

/** One block frame of an .etlc image; offsets are whole-file. */
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
 * perfectly regular: the frame-header checks of the reader apply, but
 * block contents (checksums, columns) are not examined.
 */
std::vector<EtlcBlockRef> etlcScanBlocks(io::ByteSpan data);

} // namespace deskpar::trace

#endif // DESKPAR_TESTS_SUPPORT_ETLC_SCAN_HH

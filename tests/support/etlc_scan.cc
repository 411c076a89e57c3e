#include "support/etlc_scan.hh"

#include "trace/container.hh"
#include "trace/etlc.hh"

namespace deskpar::trace {

namespace {

/**
 * Parse one block frame header at @p pos (bounded by @p limit) into
 * @p ref, with the sanity checks of the reader's frame parse: a
 * nonzero record count no larger than the uncompressed length, that
 * length within kEtlcMaxBlockBytes, a compressed length below it, and
 * the checksum and stored bytes inside the section.
 */
bool
scanBlock(io::ByteSpan body, std::size_t &pos, std::size_t limit,
          EtlcBlockRef &ref)
{
    ParseError err;
    std::uint64_t compLen = 0;
    ref.framePos = pos + kMagicBytes;
    if (!getBounded(body, pos, limit, ref.records, err))
        return false;
    ref.rawLenPos = pos + kMagicBytes;
    if (!getBounded(body, pos, limit, ref.rawLen, err) ||
        !getBounded(body, pos, limit, compLen, err))
        return false;
    if (ref.records == 0 || ref.rawLen > kEtlcMaxBlockBytes ||
        ref.records > ref.rawLen ||
        (compLen != 0 && compLen >= ref.rawLen) || limit - pos < 4)
        return false;
    ref.crcPos = pos + kMagicBytes;
    pos += 4;
    ref.dataLen = static_cast<std::size_t>(compLen ? compLen : ref.rawLen);
    if (ref.dataLen > limit - pos)
        return false;
    ref.dataPos = pos + kMagicBytes;
    pos += ref.dataLen;
    return true;
}

} // namespace

std::vector<EtlcBlockRef>
etlcScanBlocks(io::ByteSpan data)
{
    if (!isEtlcData(data))
        return {};
    io::ByteSpan body = data.substr(kMagicBytes);
    std::size_t pos = 0;
    ParseError err;
    std::uint64_t v = 0;
    // Header: version, startTime, stopTime, numLogicalCpus.
    for (int i = 0; i < 4; ++i) {
        if (!getBounded(body, pos, body.size(), v, err))
            return {};
    }
    std::vector<EtlcBlockRef> refs;
    while (pos < body.size()) {
        auto tag = static_cast<std::uint8_t>(body[pos++]);
        if (tag == static_cast<std::uint8_t>(Section::End))
            return refs;
        std::uint64_t length = 0;
        if (!getBounded(body, pos, body.size(), length, err) ||
            length > body.size() - pos)
            return {};
        std::size_t limit = pos + static_cast<std::size_t>(length);
        std::uint64_t total = 0, blockCount = 0, running = 0;
        if (!getBounded(body, pos, limit, total, err) ||
            !getBounded(body, pos, limit, blockCount, err))
            return {};
        for (std::uint64_t b = 0; b < blockCount; ++b) {
            EtlcBlockRef ref;
            ref.section = tag;
            if (!scanBlock(body, pos, limit, ref))
                return {};
            refs.push_back(ref);
            running += ref.records;
        }
        if (running != total || pos != limit)
            return {};
    }
    return {}; // no End tag
}

} // namespace deskpar::trace

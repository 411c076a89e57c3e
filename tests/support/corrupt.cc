#include "support/corrupt.hh"

#include <algorithm>
#include <utility>
#include <vector>

#include "support/etlc_scan.hh"
#include "trace/container.hh"
#include "trace/etlc.hh"

namespace deskpar::trace {

namespace {

/** splitmix64: tiny, well-mixed, and stable across platforms. */
std::uint64_t
mix(std::uint64_t x)
{
    x += 0x9e3779b97f4a7c15ull;
    x = (x ^ (x >> 30)) * 0xbf58476d1ce4e5b9ull;
    x = (x ^ (x >> 27)) * 0x94d049bb133111ebull;
    return x ^ (x >> 31);
}

struct Rng
{
    std::uint64_t state;

    std::uint64_t
    next()
    {
        state = mix(state);
        return state;
    }

    /** Uniform in [0, bound); bound 0 yields 0. */
    std::size_t
    below(std::size_t bound)
    {
        return bound ? static_cast<std::size_t>(next() % bound) : 0;
    }
};

/** Offsets of line starts in @p data ('\n'-separated). */
std::vector<std::pair<std::size_t, std::size_t>>
lineSpans(const std::string &data)
{
    std::vector<std::pair<std::size_t, std::size_t>> spans;
    std::size_t start = 0;
    while (start < data.size()) {
        std::size_t nl = data.find('\n', start);
        std::size_t end = nl == std::string::npos ? data.size() : nl;
        spans.emplace_back(start, end);
        if (nl == std::string::npos)
            break;
        start = nl + 1;
    }
    return spans;
}

} // namespace

std::string
Mutation::describe() const
{
    auto name = [](Kind k) {
        switch (k) {
          case Kind::Truncate:
            return "Truncate";
          case Kind::BitFlip:
            return "BitFlip";
          case Kind::ByteSet:
            return "ByteSet";
          case Kind::DeleteRange:
            return "DeleteRange";
          case Kind::DuplicateRange:
            return "DuplicateRange";
          case Kind::InsertGarbage:
            return "InsertGarbage";
          case Kind::DeleteCsvField:
            return "DeleteCsvField";
          case Kind::BreakQuote:
            return "BreakQuote";
          case Kind::JunkNumber:
            return "JunkNumber";
          case Kind::SwapLines:
            return "SwapLines";
          case Kind::JunkReadyTime:
            return "JunkReadyTime";
          case Kind::FlipBlockCrc:
            return "FlipBlockCrc";
          case Kind::TruncateFinalBlock:
            return "TruncateFinalBlock";
          case Kind::InflateBlockLength:
            return "InflateBlockLength";
          case Kind::VarintOverrun:
            return "VarintOverrun";
          case Kind::StompCheckpointMagic:
            return "StompCheckpointMagic";
          case Kind::FlipCheckpointCrc:
            return "FlipCheckpointCrc";
          case Kind::LieCheckpointBitmap:
            return "LieCheckpointBitmap";
          case Kind::ScrambleCheckpointIdentity:
            return "ScrambleCheckpointIdentity";
          case Kind::kCount:
            break;
        }
        return "?";
    };
    return std::string(name(kind)) + " @" + std::to_string(pos) +
           " len " + std::to_string(length) + " val " +
           std::to_string(value);
}

FaultInjector::FaultInjector(std::string original, std::uint64_t seed,
                             bool text)
    : FaultInjector(std::move(original), seed,
                    text ? TraceFormat::Text : TraceFormat::Binary)
{}

FaultInjector::FaultInjector(std::string original, std::uint64_t seed,
                             TraceFormat format)
    : original_(std::move(original)), seed_(seed), format_(format)
{}

Mutation
FaultInjector::mutationFor(std::size_t index) const
{
    Rng rng{mix(seed_ ^ (0x5eedull + index))};
    auto byteKinds = static_cast<std::size_t>(
        Mutation::Kind::DeleteCsvField);
    // The text rotation covers the byte-level and CSV-aware kinds —
    // everything below the .etlc block-anatomy family.
    auto textKinds =
        static_cast<std::size_t>(Mutation::Kind::FlipBlockCrc);
    constexpr std::size_t etlcKinds = 4;
    auto checkpointFirst = static_cast<std::size_t>(
        Mutation::Kind::StompCheckpointMagic);
    constexpr std::size_t checkpointKinds = 4;

    Mutation m;
    // Rotate through the kinds so every family is covered evenly,
    // regardless of corpus size.
    switch (format_) {
      case TraceFormat::Binary:
        m.kind = static_cast<Mutation::Kind>(index % byteKinds);
        break;
      case TraceFormat::Text:
        m.kind = static_cast<Mutation::Kind>(index % textKinds);
        break;
      case TraceFormat::Etlc: {
        std::size_t k = index % (byteKinds + etlcKinds);
        m.kind = k < byteKinds
                     ? static_cast<Mutation::Kind>(k)
                     : static_cast<Mutation::Kind>(
                           textKinds + (k - byteKinds));
        break;
      }
      case TraceFormat::Checkpoint: {
        std::size_t k = index % (byteKinds + checkpointKinds);
        m.kind = k < byteKinds
                     ? static_cast<Mutation::Kind>(k)
                     : static_cast<Mutation::Kind>(
                           checkpointFirst + (k - byteKinds));
        break;
      }
    }
    m.pos = rng.below(original_.size() + 1);
    m.length = 1 + rng.below(16);
    m.value = static_cast<std::uint8_t>(rng.next() & 0xff);
    return m;
}

std::string
FaultInjector::mutant(std::size_t index) const
{
    return apply(original_, mutationFor(index),
                 mix(seed_ ^ index));
}

std::string
FaultInjector::apply(const std::string &data, const Mutation &m,
                     std::uint64_t seed)
{
    std::string out = data;
    std::size_t size = out.size();
    std::size_t pos = size ? m.pos % size : 0;

    switch (m.kind) {
      case Mutation::Kind::Truncate:
        out.resize(m.pos % (size + 1));
        break;

      case Mutation::Kind::BitFlip:
        if (size)
            out[pos] = static_cast<char>(
                static_cast<std::uint8_t>(out[pos]) ^
                (1u << (m.value & 7)));
        break;

      case Mutation::Kind::ByteSet:
        if (size)
            out[pos] = static_cast<char>(m.value);
        break;

      case Mutation::Kind::DeleteRange:
        if (size)
            out.erase(pos, std::min(m.length, size - pos));
        break;

      case Mutation::Kind::DuplicateRange:
        if (size) {
            std::string chunk =
                out.substr(pos, std::min(m.length, size - pos));
            out.insert(pos, chunk);
        }
        break;

      case Mutation::Kind::InsertGarbage: {
        Rng rng{mix(seed ^ m.pos)};
        std::string garbage(m.length, '\0');
        for (char &c : garbage)
            c = static_cast<char>(rng.next() & 0xff);
        out.insert(m.pos % (size + 1), garbage);
        break;
      }

      case Mutation::Kind::DeleteCsvField: {
        auto spans = lineSpans(out);
        if (spans.empty())
            break;
        auto [start, end] = spans[m.pos % spans.size()];
        // Field boundaries: start, every comma, end. Remove one
        // field together with one adjacent comma.
        std::vector<std::size_t> commas;
        for (std::size_t i = start; i < end; ++i) {
            if (out[i] == ',')
                commas.push_back(i);
        }
        if (commas.empty()) {
            out.erase(start, end - start);
            break;
        }
        std::size_t field = m.value % (commas.size() + 1);
        std::size_t from =
            field == 0 ? start : commas[field - 1];
        std::size_t to =
            field == commas.size() ? end : commas[field];
        // Keep exactly one of the two adjacent commas.
        if (field == 0)
            ++to;
        out.erase(from, to - from);
        break;
      }

      case Mutation::Kind::BreakQuote:
        out.insert(m.pos % (size + 1), 1, '"');
        break;

      case Mutation::Kind::JunkNumber: {
        // Find a digit run at or after pos and vandalize it.
        std::size_t d = out.find_first_of("0123456789", pos);
        if (d == std::string::npos)
            d = out.find_first_of("0123456789");
        if (d == std::string::npos)
            break;
        std::size_t runEnd = d;
        while (runEnd < out.size() && out[runEnd] >= '0' &&
               out[runEnd] <= '9')
            ++runEnd;
        if (m.value & 1)
            out.insert(runEnd, "xyz");
        else
            out.replace(d, runEnd - d, "99999999999999999999");
        break;
      }

      case Mutation::Kind::SwapLines: {
        auto spans = lineSpans(out);
        if (spans.size() < 2)
            break;
        std::size_t a = m.pos % spans.size();
        std::size_t b = (m.pos + 1 + m.value % (spans.size() - 1)) %
                        spans.size();
        if (a == b)
            break;
        if (a > b)
            std::swap(a, b);
        std::string lineA =
            out.substr(spans[a].first,
                       spans[a].second - spans[a].first);
        std::string lineB =
            out.substr(spans[b].first,
                       spans[b].second - spans[b].first);
        // Replace back-to-front so earlier offsets stay valid.
        out.replace(spans[b].first,
                    spans[b].second - spans[b].first, lineA);
        out.replace(spans[a].first,
                    spans[a].second - spans[a].first, lineB);
        break;
      }

      case Mutation::Kind::JunkReadyTime: {
        auto spans = lineSpans(out);
        if (spans.size() < 2)
            break;
        // Skip the header; garble field 4 ("Ready Time (ns)" in the
        // CPU-Usage layout) of one data row. Even values plant an
        // inverted ready time (u64 max, always after any switch-in
        // time), odd values plant non-numeric junk.
        auto [start, end] = spans[1 + m.pos % (spans.size() - 1)];
        std::vector<std::size_t> commas;
        for (std::size_t i = start; i < end; ++i) {
            if (out[i] == ',')
                commas.push_back(i);
        }
        if (commas.size() < 5)
            break;
        std::size_t from = commas[3] + 1;
        out.replace(from, commas[4] - from,
                    m.value & 1 ? "notatime"
                                : "18446744073709551615");
        break;
      }

      case Mutation::Kind::FlipBlockCrc: {
        auto blocks = etlcScanBlocks(out);
        if (blocks.empty())
            break;
        const EtlcBlockRef &ref = blocks[m.pos % blocks.size()];
        std::size_t at = ref.crcPos + (m.value & 3);
        out[at] = static_cast<char>(
            static_cast<std::uint8_t>(out[at]) ^ 0xff);
        break;
      }

      case Mutation::Kind::TruncateFinalBlock: {
        auto blocks = etlcScanBlocks(out);
        if (blocks.empty())
            break;
        const EtlcBlockRef &last = blocks.back();
        // Land strictly inside the data bytes, so both the block and
        // its section frame become short.
        out.resize(last.dataPos +
                   m.value % std::max<std::size_t>(1, last.dataLen));
        break;
      }

      case Mutation::Kind::InflateBlockLength: {
        auto blocks = etlcScanBlocks(out);
        if (blocks.empty())
            break;
        const EtlcBlockRef &ref = blocks[m.pos % blocks.size()];
        // Even values: plausible but wrong (caught by the decoded
        // length / record-count cross-checks). Odd values: past the
        // 4 MiB cap (caught before any allocation).
        std::uint64_t inflated =
            m.value & 1 ? kEtlcMaxBlockBytes + 1 + ref.rawLen
                        : ref.rawLen * 2 + 16;
        std::size_t end = ref.rawLenPos;
        while (end < out.size() &&
               (static_cast<std::uint8_t>(out[end]) & 0x80))
            ++end;
        std::string varint;
        putVarint(varint, inflated);
        out.replace(ref.rawLenPos, end + 1 - ref.rawLenPos, varint);
        break;
      }

      case Mutation::Kind::VarintOverrun: {
        auto blocks = etlcScanBlocks(out);
        if (blocks.empty())
            break;
        const EtlcBlockRef &ref = blocks[m.pos % blocks.size()];
        std::size_t n =
            std::min<std::size_t>(12, out.size() - ref.framePos);
        for (std::size_t i = 0; i < n; ++i)
            out[ref.framePos + i] = static_cast<char>(0xff);
        break;
      }

      // Sweep-checkpoint anatomy (apps/sweep.cc layout: 8-byte
      // magic/version, 4-byte little-endian CRC32C of the body,
      // then six varints — version, seed, count, shard size,
      // duration, shard count — and the completed-shard bitmap).
      case Mutation::Kind::StompCheckpointMagic:
        if (size >= 8)
            out[m.pos % 8] = static_cast<char>(
                static_cast<std::uint8_t>(out[m.pos % 8]) ^
                (m.value | 1));
        break;

      case Mutation::Kind::FlipCheckpointCrc:
        if (size >= 12) {
            std::size_t at = 8 + (m.value & 3);
            out[at] = static_cast<char>(
                static_cast<std::uint8_t>(out[at]) ^ 0xff);
        }
        break;

      case Mutation::Kind::LieCheckpointBitmap: {
        if (size < 12)
            break;
        // Skip the six header varints to land in the bitmap.
        std::size_t at = 12;
        std::uint64_t ignored = 0;
        ParseError err;
        bool ok = true;
        for (int i = 0; ok && i < 6; ++i)
            ok = getBounded(out, at, out.size(), ignored, err);
        if (!ok || at >= out.size())
            break;
        std::size_t bitmapLen = out.size() - at;
        Rng rng{mix(seed ^ m.pos)};
        // Flip 1-3 bits so the checkpoint both claims unfinished
        // shards done and finished shards missing.
        std::size_t flips = 1 + (m.value % 3);
        for (std::size_t i = 0; i < flips; ++i) {
            std::size_t byte = at + rng.below(bitmapLen);
            out[byte] = static_cast<char>(
                static_cast<std::uint8_t>(out[byte]) ^
                (1u << rng.below(8)));
        }
        // Re-seal: the lie must survive the CRC check to test that
        // resume distrusts even a well-formed checkpoint.
        std::uint32_t crc = crc32c(out.substr(12));
        for (int shift = 0; shift < 32; shift += 8)
            out[8 + shift / 8] = static_cast<char>(
                (crc >> shift) & 0xff);
        break;
      }

      case Mutation::Kind::ScrambleCheckpointIdentity: {
        if (size < 12)
            break;
        // Varint 2 of the body is the sweep seed; replace it with
        // seed+1 and re-seal, producing a valid checkpoint of a
        // different sweep.
        std::size_t at = 12;
        std::uint64_t version = 0, sweepSeed = 0;
        ParseError err;
        if (!getBounded(out, at, out.size(), version, err))
            break;
        std::size_t seedPos = at;
        if (!getBounded(out, at, out.size(), sweepSeed, err))
            break;
        std::string replacement;
        putVarint(replacement, sweepSeed + 1);
        out.replace(seedPos, at - seedPos, replacement);
        std::uint32_t crc = crc32c(out.substr(12));
        for (int shift = 0; shift < 32; shift += 8)
            out[8 + shift / 8] = static_cast<char>(
                (crc >> shift) & 0xff);
        break;
      }

      case Mutation::Kind::kCount:
        break;
    }
    return out;
}

} // namespace deskpar::trace

/**
 * @file
 * Deterministic fault injection for serialized traces.
 *
 * A FaultInjector owns one valid serialized trace (.etl bytes or a
 * CSV text) and derives an unbounded family of corrupted variants
 * from a seed: truncations, bit flips, byte stomps, range deletion
 * and duplication, garbage insertion, and CSV-aware mutations (field
 * deletion, quote breakage, numeric junk, line swaps that disorder
 * timestamps). Mutant @e i is a pure function of (bytes, seed, i),
 * so a failing index reproduces exactly across runs and machines.
 *
 * The corpus contract (tests/trace/corpus_test.cc): every mutant
 * either decodes cleanly or yields a structured ParseError — never a
 * process abort, foreign exception, or sanitizer finding.
 *
 * A test library (deskpar_test_support): no production path corrupts
 * traces, so the injector lives under tests/, not src/.
 */

#ifndef DESKPAR_TESTS_SUPPORT_CORRUPT_HH
#define DESKPAR_TESTS_SUPPORT_CORRUPT_HH

#include <cstdint>
#include <string>

namespace deskpar::trace {

/** One deterministic corruption applied to a serialized trace. */
struct Mutation
{
    enum class Kind : std::uint8_t {
        /** Cut the tail off at pos. */
        Truncate,
        /** Flip one bit of the byte at pos. */
        BitFlip,
        /** Overwrite the byte at pos with value. */
        ByteSet,
        /** Remove length bytes at pos. */
        DeleteRange,
        /** Repeat the length bytes at pos twice. */
        DuplicateRange,
        /** Insert length pseudo-random bytes at pos. */
        InsertGarbage,
        /** Delete one comma-separated field of a text line. */
        DeleteCsvField,
        /** Insert a lone '"' mid-line (text inputs). */
        BreakQuote,
        /** Append junk to a digit run / blow up a number (text). */
        JunkNumber,
        /** Swap two whole lines (disorders CSV timestamps). */
        SwapLines,
        /**
         * Garble the Ready Time field of one CSV data row: either
         * an inverted (max-u64) ready time the readers must clamp
         * or reject, or non-numeric junk (text inputs).
         */
        JunkReadyTime,
        /**
         * XOR one byte of one block's CRC32C field (.etlc inputs —
         * the checksum no longer matches the stored bytes).
         */
        FlipBlockCrc,
        /** Cut the file inside the final block's data bytes (.etlc). */
        TruncateFinalBlock,
        /**
         * Rewrite one block's uncompressed-length varint: either a
         * plausible wrong value (decoded-length mismatch) or one
         * past the 4 MiB cap (allocation guard) (.etlc).
         */
        InflateBlockLength,
        /**
         * Stomp 0xff over a block frame header so its varints run
         * past 64 bits / off the section end (.etlc).
         */
        VarintOverrun,
        /**
         * Corrupt one byte of the 8-byte magic/version prefix
         * (sweep checkpoints — reads as another format).
         */
        StompCheckpointMagic,
        /** XOR one byte of the stored CRC32C (sweep checkpoints). */
        FlipCheckpointCrc,
        /**
         * Flip bits of the completed-shard bitmap and re-seal the
         * CRC, so the checkpoint decodes cleanly but lies about
         * progress (sweep checkpoints). Resume must not trust it:
         * shard files are the ground truth.
         */
        LieCheckpointBitmap,
        /**
         * Rewrite the seed varint and re-seal the CRC: a
         * well-formed checkpoint from a different sweep identity
         * (sweep checkpoints).
         */
        ScrambleCheckpointIdentity,
        kCount,
    };

    Kind kind = Kind::Truncate;
    std::size_t pos = 0;
    std::size_t length = 0;
    std::uint8_t value = 0;

    /** "BitFlip @1234 bit 3" — for test failure messages. */
    std::string describe() const;
};

/** What the injected bytes are, selecting the mutation rotation. */
enum class TraceFormat : std::uint8_t {
    /** .etl v3 (or any opaque bytes): byte-level kinds only. */
    Binary,
    /** CSV text: byte-level plus the CSV-aware kinds. */
    Text,
    /** .etlc: byte-level plus the block-anatomy kinds. */
    Etlc,
    /**
     * Sweep progress checkpoint (magic + CRC32C + varint body):
     * byte-level plus the checkpoint-anatomy kinds.
     */
    Checkpoint,
};

/** Deterministic mutant factory over one serialized trace. */
class FaultInjector
{
  public:
    /**
     * @p text selects the CSV-aware mutation kinds in the rotation;
     * binary inputs get only the byte-level kinds. (Kept for the
     * pre-.etlc call sites; same rotations as the TraceFormat
     * overload's Binary/Text.)
     */
    FaultInjector(std::string original, std::uint64_t seed,
                  bool text = false);

    /** As above with the full format vocabulary. */
    FaultInjector(std::string original, std::uint64_t seed,
                  TraceFormat format);

    const std::string &original() const { return original_; }

    /** The mutation mutant(index) applies. */
    Mutation mutationFor(std::size_t index) const;

    /** The corrupted variant @p index (pure in (bytes, seed, index)). */
    std::string mutant(std::size_t index) const;

    /** Apply @p m to arbitrary bytes (exposed for tests). */
    static std::string apply(const std::string &data,
                             const Mutation &m, std::uint64_t seed);

  private:
    std::string original_;
    std::uint64_t seed_;
    TraceFormat format_;
};

} // namespace deskpar::trace

#endif // DESKPAR_TESTS_SUPPORT_CORRUPT_HH

/**
 * @file
 * Recoverable parse diagnostics for the trace-ingestion layer.
 *
 * Readers in trace/ never kill the process on malformed input:
 * every malformed byte is reported as a ParseError locating the
 * defect (source, section, field, line/column for text, byte offset
 * for binary, record index). Two modes:
 *
 *  - Strict: the first malformed record fails the *file*: the
 *    decoder records the error in its report and stops.
 *  - Lenient: malformed records are skipped and counted, and
 *    parsing continues; the caller gets everything that decoded
 *    cleanly plus a per-file IngestReport of what was dropped.
 *
 * The two binary containers (.etl v3, .etlc) locate, word and recover
 * their header and framing defects in one place, the shared skeleton
 * of trace/container.hh, so a given defect reads the same in both.
 *
 * fatal() remains in use only for I/O failures (cannot open / write)
 * and caller API misuse; panic() for internal invariants. Malformed
 * trace *content* always becomes a ParseError.
 */

#ifndef DESKPAR_TRACE_PARSE_HH
#define DESKPAR_TRACE_PARSE_HH

#include <cstdint>
#include <string>
#include <utility>
#include <variant>
#include <vector>

#include "sim/logging.hh"

namespace deskpar::trace {

struct Diagnostic; // trace/diagnostic.hh

/** How readers treat malformed records. */
enum class ParseMode { Strict, Lenient };

/**
 * Location and cause of one malformed piece of trace input.
 * Text inputs set line/column (1-based); binary inputs set offset
 * (byte position); record-structured sections set record (0-based
 * index within the section). Unset positions hold kNoPosition.
 */
struct ParseError
{
    /** Position sentinel: "not applicable to this input kind". */
    static constexpr std::uint64_t kNoPosition = ~0ull;

    /** File path or stream label the input came from. */
    std::string source;
    /** Logical region: "header", "row", "CSwitch", "GpuPackets"... */
    std::string section;
    /** Field or column name; empty when the whole record is bad. */
    std::string field;
    /** 1-based text line (text formats only). */
    std::uint64_t line = kNoPosition;
    /** 1-based text column (text formats only). */
    std::uint64_t column = kNoPosition;
    /** Byte offset into the input (binary formats only). */
    std::uint64_t offset = kNoPosition;
    /** 0-based record index within the section. */
    std::uint64_t record = kNoPosition;
    /** What was wrong with the bytes at that location. */
    std::string reason;

    /** One-line human-readable rendering of the full location. */
    std::string str() const;
};

/**
 * A ParseError raised as an exception: thrown by the writers'
 * validation, by replayPids and by the session layer for a refused
 * ingest, so FatalError-based callers keep working while new code
 * can catch the structured diagnostic.
 */
class TraceParseError : public FatalError
{
  public:
    explicit TraceParseError(ParseError error)
        : FatalError(error.str()), error_(std::move(error))
    {}

    const ParseError &error() const { return error_; }

  private:
    ParseError error_;
};

/**
 * Result of a fallible parse step: either a value or a ParseError.
 * The trace layer's internal no-throw currency; also returned by the
 * checked public helpers (parseCsvU64, mergeBundlesChecked).
 */
template <typename T>
class ParseResult
{
  public:
    ParseResult(T value) : state_(std::in_place_index<0>, std::move(value))
    {}
    ParseResult(ParseError error)
        : state_(std::in_place_index<1>, std::move(error))
    {}

    bool ok() const { return state_.index() == 0; }
    explicit operator bool() const { return ok(); }

    /** Valid only when ok(). */
    const T &value() const { return *std::get_if<0>(&state_); }
    T &value() { return *std::get_if<0>(&state_); }
    const T &operator*() const { return value(); }
    T &operator*() { return value(); }
    const T *operator->() const { return &value(); }
    T *operator->() { return &value(); }

    /** Valid only when !ok(). */
    const ParseError &error() const { return *std::get_if<1>(&state_); }

  private:
    /** The value or the error, never both: a success builds no error. */
    std::variant<T, ParseError> state_;
};

/** Reader configuration shared by the CSV and .etl entry points. */
struct ParseOptions
{
    ParseMode mode = ParseMode::Strict;
    /** Diagnostic label of the input ("<stream>" if empty). */
    std::string source;
    /** Cap on errors *stored* in the report (all are counted). */
    std::size_t maxStoredErrors = 64;
    /**
     * Decode worker threads for the chunk-parallel span readers,
     * decodeCpuUsageCsv/decodeGpuUtilCsv and decodeEtlc: 0 resolves
     * via DESKPAR_JOBS / hardware concurrency (with a minimum input
     * size before fanning out); an explicit value forces that many
     * chunks even for tiny inputs (tests). decodeEtl (.etl v3) is
     * serial and ignores it. Bundles, reports, and error payloads
     * are byte-identical at every thread count.
     */
    unsigned threads = 0;
};

/**
 * Wall-clock/byte accounting of one ingest, surfaced by `deskpar
 * replay` and the ingest benches so throughput is visible without a
 * profiler.
 */
struct IngestStats
{
    std::uint64_t bytes = 0;
    double seconds = 0.0;

    double
    mbPerSec() const
    {
        return seconds > 0.0
                   ? static_cast<double>(bytes) / 1e6 / seconds
                   : 0.0;
    }
};

/**
 * Per-file ingestion outcome: how many records made it, how many
 * were dropped, and the structured diagnostics for the drops.
 */
struct IngestReport
{
    std::string source;
    ParseMode mode = ParseMode::Strict;
    /** Records decoded into the bundle. */
    std::uint64_t recordsParsed = 0;
    /** Records dropped (lenient) or unread past a failure (strict). */
    std::uint64_t recordsSkipped = 0;
    /** Total defects seen; may exceed errors.size() (storage cap). */
    std::uint64_t errorCount = 0;
    /**
     * Records kept after an in-place repair (lenient mode only): an
     * inverted ready time clamped to the switch-in timestamp. These
     * are counted in recordsParsed too — the record made it into the
     * bundle — but each repair is surfaced as a Warning diagnostic.
     */
    std::uint64_t recordsClamped = 0;
    /** True when a binary input could only be partially salvaged. */
    bool salvaged = false;
    /** First maxStoredErrors structured diagnostics. */
    std::vector<ParseError> errors;
    /** First maxStoredErrors repair notes (always warnings). */
    std::vector<ParseError> repairs;

    /**
     * A clean ingest: every record decoded, nothing dropped.
     * Clamped records do not fail ok() — the data was salvageable —
     * but they do appear in diagnostics() as warnings.
     */
    bool ok() const { return errorCount == 0; }

    /**
     * The reader refused the file at its header (bad magic or
     * version, a truncated header, a CPU count past kMaxLogicalCpus,
     * a CSV header row of another view): every decoder stops there,
     * so nothing past the header was read in either mode and a
     * lenient ingest has nothing to salvage.
     */
    bool
    headerRefused() const
    {
        return !errors.empty() && errors.front().section == "header";
    }

    /** Count @p error, storing at most @p cap diagnostics. */
    void note(ParseError error, std::size_t cap);

    /** Count a kept-but-repaired record, storing at most @p cap. */
    void noteRepair(ParseError error, std::size_t cap);

    /** One-line roll-up ("parsed 812, skipped 3, 3 errors"). */
    std::string summary() const;

    /** Fold @p other (e.g. another file of the batch) into this. */
    void merge(const IngestReport &other);

    /**
     * The stored errors as pipeline Diagnostics (component "ingest";
     * lenient drops are warnings, strict rejections errors; repairs
     * always warnings). Callers include trace/diagnostic.hh for the
     * full type.
     */
    std::vector<Diagnostic> diagnostics() const;

    /**
     * Fold a sub-reader's report (a parse chunk or section decoded in
     * parallel) into this one, preserving file-order error sequence
     * and the @p cap on stored diagnostics. Unlike merge(), errors
     * beyond the sub-reader's own cap stay counted, so the merged
     * counters match a serial read of the same bytes exactly.
     */
    void absorb(IngestReport &&part, std::size_t cap);
};

} // namespace deskpar::trace

#endif // DESKPAR_TRACE_PARSE_HH

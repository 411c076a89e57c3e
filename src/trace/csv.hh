/**
 * @file
 * wpaexporter-equivalent CSV export and re-import.
 *
 * The paper's Figure 1 workflow extracts two column sets from WPA:
 *  - CPU Usage (Precise):  Process, PID, TID, CPU, Ready Time,
 *    Switch-In Time, New/Old process identity;
 *  - GPU Utilization (FM): Process, PID, Engine, Start Execution,
 *    Finished.
 * This module writes those CSVs from a TraceBundle and parses them
 * back, so the offline half of the pipeline (custom scripts processing
 * wpaexporter output) can be exercised end to end.
 *
 * Ingestion is recoverable (parse.hh): the decoders never throw on
 * malformed content; in strict mode the first bad record fails the
 * file, in lenient mode bad records are skipped and counted.
 *
 * One decoder per view (DESIGN.md section 11): decode*Csv(ByteSpan),
 * which trace::decodeTraceFile runs over a mapped file. It is
 * zero-copy — fields are std::string_view slices of the buffer — and
 * chunk-parallel: the body splits at newline boundaries into
 * ParseOptions::threads chunks decoded on worker threads, each
 * straight into its own slice of one presized output, and merged in
 * file order. Bundle contents, report counters, and every error
 * payload are byte-identical at any thread count; the differential
 * tests hold them to a serial getline reference kept in
 * tests/reference/, which shares the row parsers declared below.
 */

#ifndef DESKPAR_TRACE_CSV_HH
#define DESKPAR_TRACE_CSV_HH

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "trace/io.hh"
#include "trace/parse.hh"
#include "trace/session.hh"

namespace deskpar::trace {

/** Write the "CPU Usage (Precise)" view of @p bundle as CSV. */
void writeCpuUsageCsv(const TraceBundle &bundle, std::ostream &out);
void writeCpuUsageCsv(const TraceBundle &bundle,
                      const std::string &path);

/** Write the "GPU Utilization" view of @p bundle as CSV. */
void writeGpuUtilCsv(const TraceBundle &bundle, std::ostream &out);
void writeGpuUtilCsv(const TraceBundle &bundle, const std::string &path);

/**
 * Parse a "CPU Usage (Precise)" CSV held in memory (usually a
 * MappedFile's bytes) back into cswitch events and the process-name
 * table of @p bundle, appending to what it holds, then canonicalize
 * it (merge.hh): the export carries no ordering guarantee, CPU count
 * or window, so rows are sorted and a CPU count and window of 0 are
 * settled from the rows. Header row required; a CPU id at or above
 * kMaxLogicalCpus is a row error. Never throws on malformed content:
 * defects are reported per ParseOptions::mode (strict: first defect
 * stops the file; lenient: defective rows are skipped and counted).
 * See the file comment for the chunking rules.
 */
IngestReport decodeCpuUsageCsv(io::ByteSpan data, TraceBundle &bundle,
                               const ParseOptions &options);

/** Parse a "GPU Utilization" CSV held in memory into @p bundle. */
IngestReport decodeGpuUtilCsv(io::ByteSpan data, TraceBundle &bundle,
                              const ParseOptions &options);

/** @{ Row-level helpers (exposed for tests). */

/**
 * Split one CSV line into fields. Handles quoted fields containing
 * commas and doubled quotes: fields are views into @p line, except
 * fields containing doubled quotes, which unescape into @p scratch
 * (overwritten per call; reserved so views stay valid). A trailing
 * '\r' is dropped. Defects are located by 1-based column in @p err:
 *  - a quote opening anywhere but the start of a field (a"b,c);
 *  - text following a closing quote ("ab"x,c);
 *  - an unterminated quoted field at end of line.
 */
bool splitCsvFieldsView(std::string_view line,
                        std::vector<std::string_view> &fields,
                        std::string &scratch, ParseError &err);

/**
 * Decode one split "CPU Usage (Precise)" row (9 fields) of line
 * @p line into @p e (a fresh event) and, when the row is good, its
 * two process names into @p names. False with @p err set on a
 * defect; in lenient @p mode an inverted ready time is clamped
 * instead, with @p clamped set and the repair note in @p err.
 */
bool parseCpuRow(const std::vector<std::string_view> &fields,
                 CSwitchEvent &e,
                 decltype(TraceBundle::processNames) &names,
                 const std::string &source, std::uint64_t line,
                 ParseMode mode, bool &clamped, ParseError &err);

/** Decode one split "GPU Utilization" row (7 fields) into @p e. */
bool parseGpuRow(const std::vector<std::string_view> &fields,
                 GpuPacketEvent &e,
                 decltype(TraceBundle::processNames) &names,
                 const std::string &source, std::uint64_t line,
                 ParseError &err);

/**
 * Parse a full unsigned 64-bit decimal field. Rejects empty fields,
 * non-digits, trailing junk (123xyz) and overflow; never throws.
 */
ParseResult<std::uint64_t> parseCsvU64(std::string_view field);
/** @} */

} // namespace deskpar::trace

#endif // DESKPAR_TRACE_CSV_HH

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
 * Ingestion is recoverable (parse.hh): the report-returning readers
 * never throw on malformed content; in strict mode the first bad
 * record fails the file, in lenient mode bad records are skipped and
 * counted. The legacy void readers are strict wrappers that throw
 * TraceParseError.
 *
 * Two reader families (DESIGN.md section 11):
 *  - decode*Csv(ByteSpan)/read*CsvFile(path): the production path.
 *    Zero-copy — fields are std::string_view slices of the mapped
 *    buffer — and chunk-parallel: the body splits at newline
 *    boundaries into ParseOptions::threads chunks decoded on worker
 *    threads, each straight into its own slice of one presized
 *    output, and merged in file order. Bundle contents, report
 *    counters, and every error payload are byte-identical to the
 *    serial readers at any thread count.
 *  - read*Csv(istream): the legacy serial readers, kept as the
 *    differential reference for the span path.
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
 * Parse a "CPU Usage (Precise)" CSV back into cswitch events and the
 * process-name table of @p bundle, then canonicalize it (merge.hh):
 * the export carries no ordering guarantee, CPU count or window, so
 * rows are sorted and a CPU count and window of 0 are settled from
 * the rows. Header row required; a CPU id at or above
 * kMaxLogicalCpus is a row error. Never throws on malformed content:
 * defects are reported per ParseOptions::mode (strict: first defect
 * stops the file; lenient: defective rows are skipped and counted).
 */
IngestReport readCpuUsageCsv(std::istream &in, TraceBundle &bundle,
                             const ParseOptions &options);

/** Parse a "GPU Utilization" CSV back into @p bundle. */
IngestReport readGpuUtilCsv(std::istream &in, TraceBundle &bundle,
                            const ParseOptions &options);

/**
 * Zero-copy chunk-parallel readers over an in-memory span (usually a
 * MappedFile's bytes). Same contract and byte-identical output as the
 * istream readers above; see the file comment for the chunking rules.
 */
IngestReport decodeCpuUsageCsv(io::ByteSpan data, TraceBundle &bundle,
                               const ParseOptions &options);
IngestReport decodeGpuUtilCsv(io::ByteSpan data, TraceBundle &bundle,
                              const ParseOptions &options);

/**
 * Legacy strict readers: throw TraceParseError (a FatalError) on the
 * first malformed record.
 */
void readCpuUsageCsv(std::istream &in, TraceBundle &bundle);
void readGpuUtilCsv(std::istream &in, TraceBundle &bundle);

/**
 * Split one CSV line into fields. Handles quoted fields containing
 * commas and doubled quotes. Defects are located by 1-based column:
 *  - a quote opening anywhere but the start of a field (a"b,c);
 *  - text following a closing quote ("ab"x,c);
 *  - an unterminated quoted field at end of line.
 */
ParseResult<std::vector<std::string>>
splitCsvFields(std::string_view line);

/**
 * Zero-copy variant of splitCsvFields: fields are views into @p line,
 * except fields containing doubled quotes, which unescape into
 * @p scratch (overwritten per call; reserved so views stay valid).
 * Same defect locations and messages as splitCsvFields. Exposed for
 * tests.
 */
bool splitCsvFieldsView(std::string_view line,
                        std::vector<std::string_view> &fields,
                        std::string &scratch, ParseError &err);

/** Legacy wrapper: throws TraceParseError on malformed quoting. */
std::vector<std::string> splitCsvLine(std::string_view line);

/**
 * Parse a full unsigned 64-bit decimal field. Rejects empty fields,
 * non-digits, trailing junk (123xyz) and overflow; never throws.
 * Exposed for tests.
 */
ParseResult<std::uint64_t> parseCsvU64(std::string_view field);

} // namespace deskpar::trace

#endif // DESKPAR_TRACE_CSV_HH

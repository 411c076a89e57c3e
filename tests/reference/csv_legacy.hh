/**
 * @file
 * Serial reference reader for the CPU-Usage and GPU-Utilization
 * CSVs, kept as the differential oracle for the chunk-parallel
 * decoders (trace::decodeCpuUsageCsv / decodeGpuUtilCsv).
 *
 * The reference reads an istream with std::getline and splits each
 * line into owning std::string fields, then hands the row to the
 * library's own row parsers (trace::parseCpuRow / parseGpuRow). The
 * differential therefore tests exactly what the decoders add on top
 * of those parsers: the chunk split, line splitting, the zero-copy
 * field splitter, the presized output and the name merge. It lives
 * under tests/ because no production path reads a stream. Do not
 * optimize it.
 */

#ifndef DESKPAR_TESTS_REFERENCE_CSV_LEGACY_HH
#define DESKPAR_TESTS_REFERENCE_CSV_LEGACY_HH

#include <iosfwd>
#include <string>
#include <string_view>
#include <vector>

#include "trace/parse.hh"
#include "trace/session.hh"

namespace deskpar::trace::legacy {

/**
 * Split one CSV line into owning fields, with the same quoting rules,
 * defect columns and messages as trace::splitCsvFieldsView.
 */
ParseResult<std::vector<std::string>>
splitCsvFields(std::string_view line);

/**
 * Read a "CPU Usage (Precise)" CSV from @p in into @p bundle, then
 * canonicalize it: the contract of trace::decodeCpuUsageCsv, one
 * getline at a time.
 */
IngestReport readCpuUsageCsv(std::istream &in, TraceBundle &bundle,
                             const ParseOptions &options);

/** Read a "GPU Utilization" CSV (trace::decodeGpuUtilCsv's contract). */
IngestReport readGpuUtilCsv(std::istream &in, TraceBundle &bundle,
                            const ParseOptions &options);

} // namespace deskpar::trace::legacy

#endif // DESKPAR_TESTS_REFERENCE_CSV_LEGACY_HH

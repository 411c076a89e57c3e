/**
 * @file
 * The one trace-open path: map a trace file, pick its decoder by
 * format sniff, decode it, and time the work. Every consumer that
 * opens a trace by path — openSession's cold path (and through it the
 * SessionCache behind every CLI and served analysis request) and
 * `deskpar pack` — goes through decodeTraceFile, so the three formats
 * are told apart in exactly one place.
 *
 * The sniff, in precedence order:
 *  1. a `.csv` name suffix selects the CPU-Usage CSV reader, whatever
 *     the bytes (a CSV export has no magic of its own);
 *  2. the .etlc magic selects the block-compressed columnar reader;
 *  3. anything else goes to the .etl v3 reader, which rejects a
 *     foreign file with its structured bad-magic error.
 */

#ifndef DESKPAR_TRACE_INGEST_HH
#define DESKPAR_TRACE_INGEST_HH

#include <string>

#include "trace/parse.hh"
#include "trace/session.hh"

namespace deskpar::trace {

/** What decodeTraceFile produced. */
struct DecodedTrace
{
    TraceBundle bundle;
    /** The decoder's report; check ok() (see parse.hh). */
    IngestReport report;
    /** File size and the wall time of map + decode, nothing else. */
    IngestStats stats;
};

/** True when @p path has the `.csv` name of rule 1 above. */
inline bool
hasCsvName(const std::string &path)
{
    return path.size() > 4 && path.ends_with(".csv");
}

/**
 * Map @p path and decode it with the sniffed reader (see the file
 * comment) under @p options; an empty ParseOptions::source is
 * replaced by @p path in diagnostics. Content defects go through the
 * report, never an exception. Throws FatalError "<who>: <reason>"
 * when the file cannot be opened or read.
 */
DecodedTrace decodeTraceFile(const std::string &path,
                             const ParseOptions &options,
                             const char *who);

} // namespace deskpar::trace

#endif // DESKPAR_TRACE_INGEST_HH

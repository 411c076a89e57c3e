/**
 * @file
 * The one JSON schema of the analysis toolkit.
 *
 * Every machine-readable result — `deskpar replay/query/bottlenecks
 * --json` on the CLI and every `deskpar serve` response — is one of
 * the documents below, written by one function per result type. Each
 * document is a single line (the serve protocol is newline-delimited
 * JSON; the CLI appends the trailing '\n' itself where it wants one)
 * and carries:
 *
 *   "schema": 1      version gate for downstream consumers
 *   "command": ...   which result type this is
 *
 * followed by the result fields. Field names are the ones the
 * pre-unification CLI emitters used ("tlp", "gpu_util_percent",
 * "rows"/"key"/"t0"/"value", "wait_ms"/"critical_path"/...), so
 * existing scrapers keep working on the renamed envelope; numeric
 * formatting also matches the old emitters (%.9g timestamps, %.17g
 * query values, %.3f millisecond fields).
 *
 * The server and the CLI call the *same* writer with the *same*
 * Service result struct, which is what makes a served response
 * byte-identical to the equivalent CLI invocation. Each writer has
 * two sinks with the same bytes: a stream (the CLI) and a string it
 * appends to (the server renders straight into its reply).
 */

#ifndef DESKPAR_REPORT_DOCUMENTS_HH
#define DESKPAR_REPORT_DOCUMENTS_HH

#include <iosfwd>
#include <string>

#include "analysis/service.hh"

namespace deskpar::report {

/** The version every document stamps as "schema". */
constexpr std::uint64_t kSchemaVersion = 1;

/** `{"schema":1,"command":"analyze",...}` — one replayed trace. */
void writeAnalyzeDocument(std::ostream &out,
                          const analysis::ServiceAnalyzeResult &r);
void writeAnalyzeDocument(std::string &out,
                          const analysis::ServiceAnalyzeResult &r);

/**
 * The analyze document of a trace that failed to replay —
 * `deskpar replay --json` emits one line per file, failures
 * included, so a batch stays one-record-per-input.
 */
void writeAnalyzeFailureDocument(std::ostream &out,
                                 const std::string &path,
                                 const std::string &error);

/** `{"schema":1,"command":"query","queries":[...]}`. */
void writeQueryDocument(std::ostream &out,
                        const analysis::ServiceQueryResult &r);
void writeQueryDocument(std::string &out,
                        const analysis::ServiceQueryResult &r);

/** `{"schema":1,"command":"bottlenecks",...}` (the pre-unification
 *  report's field names, one line). */
void
writeBottlenecksDocument(std::ostream &out,
                         const analysis::ServiceBottlenecksResult &r);
void
writeBottlenecksDocument(std::string &out,
                         const analysis::ServiceBottlenecksResult &r);

/** `{"schema":1,"command":"series","kind":...,"points":[...]}`. */
void writeSeriesDocument(std::ostream &out,
                         const analysis::ServiceSeriesResult &r);
void writeSeriesDocument(std::string &out,
                         const analysis::ServiceSeriesResult &r);

/** `{"schema":1,"command":"frames",...}`. */
void writeFramesDocument(std::ostream &out,
                         const analysis::ServiceFramesResult &r);
void writeFramesDocument(std::string &out,
                         const analysis::ServiceFramesResult &r);

} // namespace deskpar::report

#endif // DESKPAR_REPORT_DOCUMENTS_HH

/**
 * @file
 * The `deskpar serve` wire protocol: newline-delimited JSON over a
 * local stream socket.
 *
 * Each request is one line, one JSON object:
 *
 *   {"op":"query","id":7,"trace":"app.etl","specs":["tlp"],...}
 *
 * ops: "ping", "stats", "shutdown", "analyze", "query",
 * "bottlenecks", "series", "frames". Trace-bearing ops share the
 * fields trace (required), app, lenient; query adds specs
 * (array of parseQuerySpec strings) and explain; bottlenecks adds
 * top; series adds kind ("tlp"|"concurrency"|"gpu_util"|
 * "frame_rate") and window_ns.
 *
 * Each response is one line, one envelope:
 *
 *   {"schema":1,"id":7,"ok":true,"diagnostics":[...],"result":{...}}
 *   {"schema":1,"id":7,"ok":false,"error":{"message":...}}
 *
 * The result member is the *unmodified* document the equivalent CLI
 * command prints (report/documents.hh), and it is written LAST in
 * the envelope so a client can extract it byte-exactly
 * (extractResult) and diff it against the CLI. id echoes the
 * request's id (0 when absent) so a pipelining client can match
 * responses; responses to one connection are written in completion
 * order, not arrival order.
 */

#ifndef DESKPAR_SERVE_PROTOCOL_HH
#define DESKPAR_SERVE_PROTOCOL_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/service.hh"
#include "trace/diagnostic.hh"

namespace deskpar::serve {

enum class RequestOp : std::uint8_t {
    Ping = 0,
    Stats = 1,
    Shutdown = 2,
    Analyze = 3,
    Query = 4,
    Bottlenecks = 5,
    Series = 6,
    Frames = 7,
};

const char *requestOpName(RequestOp op);

/** One decoded request line. */
struct Request
{
    RequestOp op = RequestOp::Ping;
    /** Client-chosen correlation id, echoed in the response. */
    std::uint64_t id = 0;
    analysis::ServiceTraceRequest trace;
    /** Query only. */
    std::vector<std::string> specs;
    bool explain = false;
    /** Bottlenecks only. */
    std::size_t top = 10;
    /** Series only. */
    analysis::ServiceSeriesKind seriesKind =
        analysis::ServiceSeriesKind::Tlp;
    sim::SimDuration window = 0;
};

/**
 * Decode one request line. Returns false with a message suitable
 * for the error envelope (bad JSON, unknown op, missing field);
 * never throws.
 */
bool parseRequest(const std::string &line, Request &out,
                  std::string &error);

/**
 * Append the head of a success envelope to @p out: everything up to
 * the `"result":` key. The caller appends the one-line result
 * document (report/documents.hh, rendered in place) and the closing
 * '}'. @p diagnostics are the request's captured pipeline
 * diagnostics. No trailing newline; the transport appends it.
 */
void
beginSuccessEnvelope(std::string &out, std::uint64_t id,
                     const std::vector<trace::Diagnostic> &diagnostics);

/** Failure envelope. @p kind tags the error source ("parse",
 *  "trace", "internal"). */
std::string errorEnvelope(std::uint64_t id, const std::string &kind,
                          const std::string &message);

/**
 * Recover the byte-exact result document from a success envelope:
 * scans the envelope's top level (string/escape aware, brace-depth
 * counting — substring tricks inside string values cannot spoof it)
 * for the depth-1 "result" member and returns its value span.
 * Returns false on an error envelope or malformed input.
 */
bool extractResult(const std::string &envelope, std::string &document);

} // namespace deskpar::serve

#endif // DESKPAR_SERVE_PROTOCOL_HH

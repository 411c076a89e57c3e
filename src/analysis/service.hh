/**
 * @file
 * The unified request API of the analysis layer: typed request
 * structs in, typed result structs out, one implementation shared by
 * every front end.
 *
 * Before this facade, each CLI subcommand hand-rolled the same
 * open-trace / check-report / resolve-pids / run / emit sequence
 * with small accidental differences (exit codes, degraded handling,
 * error text). A Service centralizes that sequence once:
 *
 *   request struct  ->  Service method  ->  result struct
 *
 * and the callers — `deskpar query/bottlenecks/replay/stats`, the
 * `deskpar serve` request demultiplexer, tests — only decide how to
 * render the result (report/documents.hh renders each result struct
 * as the one JSON schema both the CLI and the server emit).
 *
 * Traces are opened through a resident SessionCache, so a Service
 * embedded in the server answers repeat requests against the same
 * file from memory. Results are computed with the same Session calls
 * the one-shot CLI paths use, so a served response is byte-identical
 * (after rendering) to the equivalent cold CLI invocation.
 *
 * Errors are exceptions: TraceParseError for trace-content problems
 * (including "no matching process", from trace::replayPids), FatalError
 * for user errors (bad spec, bad prefix, unreadable file). Callers
 * map them to exit codes or error envelopes.
 */

#ifndef DESKPAR_ANALYSIS_SERVICE_HH
#define DESKPAR_ANALYSIS_SERVICE_HH

#include <cstdint>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "analysis/blocking.hh"
#include "analysis/query.hh"
#include "analysis/session_cache.hh"
#include "analysis/timeseries.hh"

namespace deskpar::analysis {

/** How a request names and opens its trace; common to every op. */
struct ServiceTraceRequest
{
    std::string path;
    /**
     * Process-name prefix selecting the app. Meaning matches the
     * command each op mirrors: analyze treats empty as "every
     * application process" (and fails on a trace with none, like
     * replay); bottlenecks/series/frames treat empty as system-wide.
     */
    std::string appPrefix;
    bool lenient = false;
    /**
     * Worker threads for a query's plan (not the ingest); the other
     * requests compute serially. Served queries use the server's
     * requestJobs (default 1) so each request stays on its own worker
     * and per-request diagnostics stay exact; `deskpar query` passes
     * its --jobs through (0 = DESKPAR_JOBS / hardware).
     */
    unsigned jobs = 1;
};

/** `deskpar replay`'s per-file numbers, served resident. */
struct ServiceAnalyzeResult
{
    std::string path;
    std::string appPrefix;
    AppMetrics metrics;
    /** File size + map/decode wall time of the cold open. */
    trace::IngestStats ingest;
    std::uint64_t events = 0;
    /** Lenient ingest dropped records ("degraded" in replay). */
    bool degraded = false;
    /** Served from the resident cache without an ingest. */
    bool warm = false;
    /** report->summary() of a degraded ingest, else empty. */
    std::string degradedSummary;
};

struct ServiceQueryRequest
{
    ServiceTraceRequest trace;
    /** Compact spec strings (parseQuerySpec syntax). */
    std::vector<std::string> specs;
    bool explain = false;
};

struct ServiceQueryResult
{
    std::vector<QueryResult> results;
    /** plan.explain() text when the request asked for it. */
    std::string explainText;
    bool degraded = false;
    bool warm = false;
    std::string degradedSummary;
};

struct ServiceBottlenecksRequest
{
    ServiceTraceRequest trace;
    /** Rows per report section. */
    std::size_t top = 10;
};

struct ServiceBottlenecksResult
{
    blocking::BlockingReport report;
    std::size_t top = 10;
    bool degraded = false;
    bool warm = false;
    std::string degradedSummary;
};

/** Which per-window curve a series request wants. */
enum class ServiceSeriesKind : std::uint8_t {
    Tlp = 0,
    Concurrency = 1,
    GpuUtil = 2,
    FrameRate = 3,
};

const char *serviceSeriesKindName(ServiceSeriesKind kind);

struct ServiceSeriesRequest
{
    ServiceTraceRequest trace;
    ServiceSeriesKind kind = ServiceSeriesKind::Tlp;
    /** Window width in SimTime ticks (ns). */
    sim::SimDuration window = 0;
};

struct ServiceSeriesResult
{
    ServiceSeriesKind kind = ServiceSeriesKind::Tlp;
    TimeSeries series;
    bool degraded = false;
    bool warm = false;
    std::string degradedSummary;
};

struct ServiceFramesRequest
{
    ServiceTraceRequest trace;
};

struct ServiceFramesResult
{
    FrameStats frames;
    bool degraded = false;
    bool warm = false;
    std::string degradedSummary;
};

class Service
{
  public:
    struct Options
    {
        SessionCacheOptions cache;
    };

    explicit Service(const Options &options = {});

    Service(const Service &) = delete;
    Service &operator=(const Service &) = delete;

    /**
     * Whole-trace app metrics — the numbers `deskpar replay` prints,
     * from the resident cache. Pids resolve through
     * trace::replayPids: an empty prefix selects every application
     * process, and no match throws TraceParseError (section
     * "replay").
     */
    ServiceAnalyzeResult analyze(const ServiceTraceRequest &request);

    /**
     * Parse, fuse-plan, and run a query batch. Every spec is parsed
     * before the trace is opened (a typo in spec 3 costs nothing),
     * matching `deskpar query`. Throws FatalError on a malformed
     * spec.
     */
    ServiceQueryResult query(const ServiceQueryRequest &request);

    /**
     * Wakeup-chain bottleneck report. Empty prefix = system-wide;
     * a non-matching prefix throws FatalError with the same message
     * `deskpar bottlenecks` prints.
     */
    ServiceBottlenecksResult
    bottlenecks(const ServiceBottlenecksRequest &request);

    /** One windowed curve (TLP / concurrency / GPU util / FPS). */
    ServiceSeriesResult series(const ServiceSeriesRequest &request);

    /** Frame statistics for the selected pids. */
    ServiceFramesResult frames(const ServiceFramesRequest &request);

    /** Drop the resident entry for @p path. */
    void invalidate(const std::string &path);

    SessionCacheStats cacheStats() const { return cache_.stats(); }

  private:
    SessionCache::Lease open(const ServiceTraceRequest &request);

    SessionCache cache_;
};

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_SERVICE_HH

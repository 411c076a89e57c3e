#include "analysis/service.hh"

#include <utility>

#include "sim/logging.hh"
#include "trace/filter.hh"

namespace deskpar::analysis {

namespace {

/**
 * The system-wide-capable resolution of bottlenecks/series/frames:
 * empty prefix selects everything, a non-matching prefix is a usage
 * error with `deskpar bottlenecks`' message.
 */
trace::PidSet
resolveScopePids(const Session &session, const std::string &appPrefix)
{
    if (appPrefix.empty())
        return trace::PidSet{};
    trace::PidSet pids = session.pids(appPrefix);
    if (pids.empty())
        // Raw FatalError (no "fatal: " prefix): the CLI's top-level
        // handler prints "deskpar: <what>", and this message must
        // stay byte-identical to the pre-Service bottlenecks error.
        throw FatalError("no process name matches prefix '" +
                         appPrefix + "'");
    return pids;
}

/** Degraded-ingest flags shared by every result struct. */
template <typename Result>
void
noteIngest(Result &result, const SessionCache::Lease &lease)
{
    result.warm = lease.warm;
    if (lease.report && !lease.report->ok()) {
        result.degraded = true;
        result.degradedSummary = lease.report->summary();
    }
}

} // namespace

const char *
serviceSeriesKindName(ServiceSeriesKind kind)
{
    switch (kind) {
      case ServiceSeriesKind::Tlp:
        return "tlp";
      case ServiceSeriesKind::Concurrency:
        return "concurrency";
      case ServiceSeriesKind::GpuUtil:
        return "gpu_util";
      case ServiceSeriesKind::FrameRate:
        return "frame_rate";
    }
    return "tlp";
}

Service::Service(const Options &options)
    : cache_(options.cache)
{}

SessionCache::Lease
Service::open(const ServiceTraceRequest &request)
{
    return cache_.acquire(request.path,
                          request.lenient
                              ? trace::ParseMode::Lenient
                              : trace::ParseMode::Strict);
}

ServiceAnalyzeResult
Service::analyze(const ServiceTraceRequest &request)
{
    SessionCache::Lease lease = open(request);
    const Session &session = *lease.session;
    trace::PidSet pids = trace::replayPids(
        session.bundle(), request.path, request.appPrefix);

    ServiceAnalyzeResult result;
    result.path = request.path;
    result.appPrefix = request.appPrefix;
    // Session::app(pids), but an empty prefix's pids are every
    // nonzero pid, whose switch filter equals the system-wide one:
    // concurrency reads the columns the open warmed. (System-wide
    // GPU and frame filters also keep pid 0, so those use pids.)
    result.metrics.concurrency = session.concurrency(
        request.appPrefix.empty() ? trace::PidSet{} : pids);
    result.metrics.gpu = session.gpuUtil(pids);
    result.metrics.frames = session.frameStats(pids);
    result.ingest = lease.ingest;
    result.events = session.bundle().totalEvents();
    noteIngest(result, lease);
    cache_.recharge(lease);
    return result;
}

ServiceQueryResult
Service::query(const ServiceQueryRequest &request)
{
    if (request.specs.empty())
        fatal("query: no query specs given");
    std::vector<Query> queries;
    queries.reserve(request.specs.size());
    for (const std::string &spec : request.specs)
        queries.push_back(parseQuerySpec(spec));

    SessionCache::Lease lease = open(request.trace);
    QueryPlan plan = lease.session->plan(queries);

    ServiceQueryResult result;
    if (request.explain)
        result.explainText = plan.explain().str();
    result.results = std::move(plan).run(request.trace.jobs);
    noteIngest(result, lease);
    cache_.recharge(lease);
    return result;
}

ServiceBottlenecksResult
Service::bottlenecks(const ServiceBottlenecksRequest &request)
{
    SessionCache::Lease lease = open(request.trace);
    trace::PidSet pids =
        resolveScopePids(*lease.session, request.trace.appPrefix);

    ServiceBottlenecksResult result;
    result.report =
        lease.session->bottlenecks(pids, request.trace.jobs);
    result.top = request.top;
    noteIngest(result, lease);
    cache_.recharge(lease);
    return result;
}

ServiceSeriesResult
Service::series(const ServiceSeriesRequest &request)
{
    if (request.window == 0)
        fatal("series: window must be positive");
    SessionCache::Lease lease = open(request.trace);
    trace::PidSet pids =
        resolveScopePids(*lease.session, request.trace.appPrefix);

    ServiceSeriesResult result;
    result.kind = request.kind;
    switch (request.kind) {
      case ServiceSeriesKind::Tlp:
        result.series =
            lease.session->tlpSeries(pids, request.window);
        break;
      case ServiceSeriesKind::Concurrency:
        result.series =
            lease.session->concurrencySeries(pids, request.window);
        break;
      case ServiceSeriesKind::GpuUtil:
        result.series =
            lease.session->gpuUtilSeries(pids, request.window);
        break;
      case ServiceSeriesKind::FrameRate:
        result.series =
            lease.session->frameRateSeries(pids, request.window);
        break;
    }
    noteIngest(result, lease);
    cache_.recharge(lease);
    return result;
}

ServiceFramesResult
Service::frames(const ServiceFramesRequest &request)
{
    SessionCache::Lease lease = open(request.trace);
    trace::PidSet pids =
        resolveScopePids(*lease.session, request.trace.appPrefix);

    ServiceFramesResult result;
    result.frames = lease.session->frameStats(pids);
    noteIngest(result, lease);
    cache_.recharge(lease);
    return result;
}

void
Service::invalidate(const std::string &path)
{
    cache_.invalidate(path);
}

} // namespace deskpar::analysis

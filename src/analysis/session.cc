#include "analysis/session.hh"

#include <algorithm>
#include <utility>

#include "sim/logging.hh"
#include "trace/filter.hh"

namespace deskpar::analysis {

namespace {

/** Heap bytes of @p report (vector capacities plus names). */
std::uint64_t
reportBytes(const blocking::BlockingReport &report)
{
    std::uint64_t bytes =
        sizeof(report) +
        report.threads.capacity() * sizeof(blocking::ThreadBlocking) +
        report.edges.capacity() * sizeof(blocking::WakeupEdge) +
        report.criticalPath.capacity() *
            sizeof(blocking::CriticalPathHop);
    for (const blocking::ThreadBlocking &thread : report.threads)
        bytes += thread.name.capacity();
    return bytes;
}

} // namespace

Session::Session(const TraceBundle &bundle) : bundle_(&bundle) {}

Session::Session(TraceBundle &&bundle)
    : owned_(std::make_unique<TraceBundle>(std::move(bundle))),
      bundle_(owned_.get())
{}

Session::~Session() = default;

const TraceIndex &
Session::index() const
{
    std::call_once(indexOnce_, [this] {
        index_ = std::make_unique<TraceIndex>(*bundle_);
    });
    return *index_;
}

void
Session::adoptIndex(std::unique_ptr<TraceIndex> index) const
{
    bool installed = false;
    std::call_once(indexOnce_, [&] {
        index_ = std::move(index);
        installed = true;
    });
    if (!installed)
        deskpar::fatal("Session::adoptIndex: index already built");
}

PidSet
Session::pids(const std::string &prefix) const
{
    return prefix.empty() ? trace::allApplicationPids(*bundle_)
                          : trace::pidsWithPrefix(*bundle_, prefix);
}

AppMetrics
Session::app(const PidSet &pids) const
{
    const TraceIndex &idx = index();
    AppMetrics metrics;
    metrics.concurrency = idx.concurrency(pids);
    metrics.gpu = idx.gpuUtil(pids);
    metrics.frames = idx.frameStats(pids);
    return metrics;
}

AppMetrics
Session::app(const std::string &prefix) const
{
    // An empty prefix is the system-wide set here, not pids("")'s
    // every-application set.
    PidSet pids;
    if (!prefix.empty()) {
        pids = trace::pidsWithPrefix(*bundle_, prefix);
        if (pids.empty())
            deskpar::fatal("analyzeApp: no process named " + prefix);
    }
    return app(pids);
}

ConcurrencyProfile
Session::concurrency(const PidSet &pids, sim::SimTime t0,
                     sim::SimTime t1) const
{
    return index().concurrency(pids, t0, t1);
}

ConcurrencyProfile
Session::concurrency(const PidSet &pids) const
{
    return index().concurrency(pids);
}

GpuUtilization
Session::gpuUtil(const PidSet &pids, sim::SimTime t0,
                 sim::SimTime t1) const
{
    return index().gpuUtil(pids, t0, t1);
}

GpuUtilization
Session::gpuUtil(const PidSet &pids) const
{
    return index().gpuUtil(pids);
}

FrameStats
Session::frameStats(const PidSet &pids) const
{
    return index().frameStats(pids);
}

Responsiveness
Session::responsiveness(const PidSet &pids) const
{
    return index().responsiveness(pids);
}

PowerEstimate
Session::power(const sim::CpuSpec &cpu, const sim::GpuSpec &gpu) const
{
    return index().power(cpu, gpu);
}

QueryPlan
Session::plan(const std::vector<Query> &queries) const
{
    // The planner sweeps the raw cswitch stream, which a warm
    // (cache-restored) Session intentionally does not carry.
    if (index().restored())
        deskpar::fatal(
            "Session::plan: query plans are not supported on a "
            "cache-restored Session; reopen the trace with a cold "
            "ingest");
    return QueryPlan::compile(index(), queries);
}

std::vector<QueryResult>
Session::query(const std::vector<Query> &queries,
               unsigned threads) const
{
    return plan(queries).run(threads);
}

blocking::BlockingReport
Session::bottlenecks(const PidSet &pids, unsigned /*threads*/) const
{
    // The wakeup-chain sweep also needs the raw cswitch stream.
    if (index().restored())
        deskpar::fatal(
            "Session::bottlenecks: bottleneck analysis is not "
            "supported on a cache-restored Session; reopen the "
            "trace with a cold ingest");
    std::vector<trace::Pid> key(pids.begin(), pids.end());
    std::sort(key.begin(), key.end());
    ReportSlot *slot = nullptr;
    {
        std::lock_guard<std::mutex> lock(reportsMutex_);
        std::unique_ptr<ReportSlot> &entry = reports_[std::move(key)];
        if (!entry)
            entry = std::make_unique<ReportSlot>();
        slot = entry.get();
    }
    std::lock_guard<std::mutex> lock(slot->mutex);
    if (!slot->report) {
        auto report = std::make_unique<const blocking::BlockingReport>(
            blocking::analyze(index(), pids));
        reportBytes_.fetch_add(reportBytes(*report),
                               std::memory_order_relaxed);
        slot->report = std::move(report);
    }
    return *slot->report;
}

std::uint64_t
Session::memoryBytes() const
{
    return bundle_->memoryBytes() + index().memoryBytes() +
           reportBytes_.load(std::memory_order_relaxed);
}

} // namespace deskpar::analysis

/**
 * @file
 * The one front door to trace analysis: a Session owns (or borrows)
 * one TraceBundle plus its lazily-built TraceIndex and answers every
 * metric query the toolkit knows.
 *
 * A Session builds the index once, on first query, and every later
 * query of any metric reuses the cached columns, so a caller
 * computing three metrics pays one cswitch sweep, not three. There
 * is no other analysis entry point: a one-off metric is a Session
 * that borrows the bundle for one call. The single-sweep reference
 * implementations the differential tests compare against live in
 * tests/reference/, outside the library.
 *
 * Lifetime: the borrowing constructor aliases the caller's bundle,
 * which must outlive the Session (the same contract TraceIndex had);
 * the owning constructor moves the bundle in, which is what pipeline
 * code that ingests-then-analyzes wants. Sessions are immovable —
 * the index holds a reference into the bundle storage.
 *
 * Resident derived state: the index keeps every column a query
 * built, and bottlenecks() keeps each pid set's report, so a Session
 * held by `deskpar serve` answers a repeated request without another
 * cswitch sweep. memoryBytes() measures all of it for the session
 * cache's budget.
 *
 * Thread safety: same as TraceIndex — concurrent queries are fine,
 * and each column or report is built once, under a lock of its own.
 */

#ifndef DESKPAR_ANALYSIS_SESSION_HH
#define DESKPAR_ANALYSIS_SESSION_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "analysis/blocking.hh"
#include "analysis/power.hh"
#include "analysis/query_plan.hh"
#include "analysis/responsiveness.hh"
#include "analysis/timeseries.hh"
#include "analysis/trace_index.hh"

namespace deskpar::analysis {

class Session
{
  public:
    /** Borrow @p bundle; it must outlive the Session. */
    explicit Session(const TraceBundle &bundle);

    /** Take ownership of @p bundle. */
    explicit Session(TraceBundle &&bundle);

    ~Session();

    Session(const Session &) = delete;
    Session &operator=(const Session &) = delete;

    /** The analyzed bundle. */
    const TraceBundle &bundle() const { return *bundle_; }

    /** The shared index (built on first use). */
    const TraceIndex &index() const;

    /**
     * Install a pre-built index — the warm-reopen path of the index
     * cache (analysis/index_cache.hh), which restores columns from
     * disk and hands the Session an index that borrows this
     * Session's bundle. Fatal if the Session already built its own
     * index. Metrics needing the raw cswitch stream (plan()/query()/
     * bottlenecks()) refuse cache-restored Sessions.
     */
    void adoptIndex(std::unique_ptr<TraceIndex> index) const;

    /**
     * Pids of the application whose process names start with
     * @p prefix; an empty prefix selects every non-idle application
     * process. May be empty (no match) — queries over an empty set
     * mean "system-wide", so check when a specific app was asked for.
     */
    PidSet pids(const std::string &prefix) const;

    /**
     * Fused per-app metrics (concurrency + GPU + frames): one
     * cswitch sweep, one frame sweep and one GPU column build.
     */
    AppMetrics app(const PidSet &pids) const;

    /**
     * As above for the processes whose names start with @p prefix
     * (empty = system-wide); fatal when @p prefix matches no process.
     */
    AppMetrics app(const std::string &prefix) const;

    /**
     * Windowed concurrency histogram (Equation 1 inputs) over the
     * header's logical CPUs; fatal when the header has none.
     */
    ConcurrencyProfile concurrency(const PidSet &pids, sim::SimTime t0,
                                   sim::SimTime t1) const;

    /** Whole-bundle window. */
    ConcurrencyProfile concurrency(const PidSet &pids) const;

    /** Windowed GPU utilization. */
    GpuUtilization gpuUtil(const PidSet &pids, sim::SimTime t0,
                           sim::SimTime t1) const;

    /** Whole-bundle window. */
    GpuUtilization gpuUtil(const PidSet &pids) const;

    /** Frame statistics. */
    FrameStats frameStats(const PidSet &pids) const;

    /** Input-to-dispatch latency. */
    Responsiveness responsiveness(const PidSet &pids) const;

    /** Machine-level power estimate. */
    PowerEstimate power(const sim::CpuSpec &cpu,
                        const sim::GpuSpec &gpu) const;

    /**
     * @{ Time series over windows of length @p window tiling the
     * bundle (timeseries.hh; defined in timeseries.cc). The
     * concurrency series resolve the pid set's timeline once and
     * walk one forward cursor over their adjacent windows.
     */

    /** Per-window TLP (Eq. 1 per window; 0 for fully idle ones). */
    TimeSeries tlpSeries(const PidSet &pids,
                         sim::SimDuration window) const;

    /**
     * Per-window average concurrency including idle time: the
     * "instantaneous TLP" curve of Figures 5-7.
     */
    TimeSeries concurrencySeries(const PidSet &pids,
                                 sim::SimDuration window) const;

    /** Per-window GPU utilization percent (aggregate, capped at 100). */
    TimeSeries gpuUtilSeries(const PidSet &pids,
                             sim::SimDuration window) const;

    /** Per-window presented FPS, synthesized frames included. */
    TimeSeries frameRateSeries(const PidSet &pids,
                               sim::SimDuration window) const;
    /** @} */

    /**
     * Compile a query batch into a fused plan (query_plan.hh): one
     * cswitch pass per distinct filter instead of one per row. The
     * plan borrows the Session's index and can be inspected
     * (explain()) and run repeatedly.
     */
    QueryPlan plan(const std::vector<Query> &queries) const;

    /**
     * Compile and run a query batch; results are bit-identical to
     * the one-sweep-per-row reference (tests/reference/) at any
     * thread count (@p threads 0 means DESKPAR_JOBS / hardware
     * concurrency).
     */
    std::vector<QueryResult> query(const std::vector<Query> &queries,
                                   unsigned threads = 0) const;

    /**
     * Wakeup-chain serialization-bottleneck report (blocking.hh):
     * ready-queue waits, wakeup-edge culprits, and the critical
     * path, bit-identical to the map-based reference
     * (tests/reference/). Memoized per pid set: the first call for
     * a set runs the pass, later calls copy the kept report.
     * Rendering options such as `top` stay with the caller. The pass
     * is sequential, so @p threads is unused; it stays for callers
     * that pass their job count.
     */
    blocking::BlockingReport bottlenecks(const PidSet &pids,
                                         unsigned threads = 0) const;

    /**
     * Resident bytes: the bundle estimate, the index columns built
     * so far, and the memoized bottleneck reports. Grows as queries
     * build state; never shrinks.
     */
    std::uint64_t memoryBytes() const;

  private:
    /** One pid set's memoized report; built once under `mutex`. */
    struct ReportSlot
    {
        std::mutex mutex;
        std::unique_ptr<const blocking::BlockingReport> report;
    };

    /** Set iff constructed by move (bundle_ points into it). */
    std::unique_ptr<TraceBundle> owned_;
    const TraceBundle *bundle_;

    mutable std::once_flag indexOnce_;
    mutable std::unique_ptr<TraceIndex> index_;

    /** Guards the report map (not the reports). */
    mutable std::mutex reportsMutex_;
    /** Keyed by the sorted pid list; slots are never erased. */
    mutable std::map<std::vector<trace::Pid>,
                     std::unique_ptr<ReportSlot>>
        reports_;
    /** Bytes of every memoized report (memoryBytes). */
    mutable std::atomic<std::uint64_t> reportBytes_{0};
};

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_SESSION_HH

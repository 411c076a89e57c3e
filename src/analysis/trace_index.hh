/**
 * @file
 * Columnar trace index: one structure-of-arrays view of a TraceBundle
 * that every metric queries instead of re-sweeping the event vectors.
 *
 * Direct analyses perform their own full linear scan, once per pid
 * set and once per time window, so the timeline figures would pay
 * O(windows x events) and the Table II suite would re-read the same
 * cswitch stream several times per iteration. The index is built once per
 * (bundle, pid set) and answers windowed queries with two searches
 * plus prefix-sum differences:
 *
 *  - Concurrency: the cswitch stream is compressed into a sorted
 *    breakpoint column (times[], levels[]), levels[i] holding the
 *    number of busy target CPUs on [times[i], times[i+1)). Strided
 *    checkpoint rows carry per-level prefix sums of busy time, so a
 *    windowed histogram is the difference of two edges, each a
 *    checkpoint row plus at most one stride of segments
 *    (detail::ConcurrencyCursor, which walks adjacent windows
 *    forward).
 *  - GPU: a start-time column plus a running-max finish column bound
 *    the packets that can intersect a window; the candidates are then
 *    folded with the full scan's loop (detail::foldGpuPackets), in
 *    stream order, so the floating-point sums are bit-identical.
 *  - Frames / responsiveness / power columns are built in the same
 *    fused sweeps and cached per pid set.
 *
 * The index is also the one owner of every cswitch-derived column in
 * the program. The fused query planner (query_plan.hh) asks it for
 * the columns of each distinct row filter — pid set, optional tid,
 * cpu mask — through filterColumns(), so a resident Session sweeps
 * each filter's stream at most once per column family however many
 * batches it answers. The index's own pid-set queries read the same
 * slots with the default filter (no tid, all cpus).
 *
 * Every query is bit-identical to the single-sweep reference
 * implementations the differential tests hold (tests/reference/): the
 * integer time-at-level decomposition is exact, and floating-point
 * folds reuse the reference operation order. The index takes the
 * bundle in the canonical form every decoder leaves it in
 * (trace::canonicalize): cswitches in timestamp order — the timeline
 * builder panics otherwise — and a CPU count settled from the stream
 * when the header had none. Concurrency queries on a bundle with no
 * CPU count, which only a trace without context switches keeps, are
 * fatal.
 *
 * Thread safety: each filter slot has its own build mutex, so two
 * threads asking for one filter build it once while different
 * filters build in parallel; the index-wide mutex only guards slot
 * lookup and the pid-agnostic GPU / per-CPU-busy columns. Built
 * columns are never modified or freed, so readers hold no lock. The
 * index borrows the bundle — the caller keeps the bundle alive and
 * unmodified for the index's lifetime.
 */

#ifndef DESKPAR_ANALYSIS_TRACE_INDEX_HH
#define DESKPAR_ANALYSIS_TRACE_INDEX_HH

#include <atomic>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>
#include <string_view>
#include <tuple>
#include <vector>

#include "analysis/concurrency_timeline.hh"
#include "analysis/framerate.hh"
#include "analysis/gpu_util.hh"
#include "analysis/power.hh"
#include "analysis/responsiveness.hh"
#include "analysis/tlp.hh"
#include "trace/filter.hh"
#include "trace/session.hh"

namespace deskpar::analysis {

class TraceIndex
{
  public:
    /** Borrow @p bundle; columns are built lazily on first query. */
    explicit TraceIndex(const TraceBundle &bundle);
    ~TraceIndex();

    TraceIndex(const TraceIndex &) = delete;
    TraceIndex &operator=(const TraceIndex &) = delete;

    /** The indexed bundle. */
    const TraceBundle &bundle() const { return bundle_; }

    /**
     * Concurrency histogram of @p pids (empty = every non-idle
     * process) over [@p t0, @p t1), with the header's CPU count as
     * n. Fatal when the header has no CPU count or the window is
     * empty.
     */
    ConcurrencyProfile concurrency(const PidSet &pids, sim::SimTime t0,
                                   sim::SimTime t1) const;

    /** Whole-bundle window. */
    ConcurrencyProfile concurrency(const PidSet &pids) const;

    /**
     * The concurrency timeline of @p pids: on a non-empty window,
     * concurrency(pids, t0, t1) is exactly what a
     * detail::ConcurrencyCursor answers from it, which a series
     * walks window by window with no lock and no span. Fatal when
     * the header has no CPU count.
     */
    const detail::ConcurrencyTimeline &
    concurrencyTimeline(const PidSet &pids) const;

    /**
     * GPU utilization of @p pids (empty = all processes) over
     * [@p t0, @p t1); fatal on an empty window.
     */
    GpuUtilization gpuUtil(const PidSet &pids, sim::SimTime t0,
                           sim::SimTime t1) const;

    /** Whole-bundle window. */
    GpuUtilization gpuUtil(const PidSet &pids) const;

    /** Frame statistics (detail::frameStats, cached per pid set). */
    FrameStats frameStats(const PidSet &pids) const;

    /**
     * Input-to-dispatch latency from the cached sorted dispatch
     * column of the pid set (detail::responsivenessFromDispatches).
     */
    Responsiveness responsiveness(const PidSet &pids) const;

    /**
     * Machine-level power over the whole bundle window, from the
     * cached per-CPU busy intervals and the GPU columns.
     */
    PowerEstimate power(const sim::CpuSpec &cpu,
                        const sim::GpuSpec &gpu) const;

    /**
     * Eagerly build every column the fused Session::app sweep needs
     * for @p pids (useful before sharing the index across threads).
     */
    void warm(const PidSet &pids) const;

    /**
     * Emit the out-of-range-cpu warning for @p count excluded events
     * at most once over this index's lifetime (any thread). Queries
     * against one trace used to repeat the warning once per window /
     * per batch entry; the count is still reported per profile via
     * ConcurrencyProfile::outOfRangeCpuEvents. No-op when @p count or
     * @p header_cpus is zero. Used by the index's own column builds
     * and by the fused query planner (query_plan.hh).
     */
    void warnOutOfRangeOnce(std::uint64_t count,
                            unsigned header_cpus) const;

    /**
     * The cswitch-derived columns of one row filter, filled by fused
     * detail::buildConcurrencyTimeline sweeps.
     */
    struct CswitchColumns
    {
        detail::ConcurrencyTimeline timeline;
        /** Sorted switch-in times of target threads. */
        std::vector<sim::SimTime> dispatches;
        detail::BurstColumns bursts;
        /** Ready-wait intervals, end-sorted. */
        detail::WaitColumns waits;
    };

    /** Column families of CswitchColumns, as bits. */
    enum CswitchFamily : unsigned {
        kTimeline = 1u << 0,
        kDispatches = 1u << 1,
        kBursts = 1u << 2,
        kWaits = 1u << 3,
    };

    /**
     * The columns of @p spec with at least @p families built; the
     * timeline comes with a filter's first sweep whatever else was
     * asked for. Each family of a filter is swept at most once per
     * index, and built families are never modified, so the returned
     * reference can be read without a lock for the index's lifetime.
     * Fatal on a restored() index when a family is missing. The
     * caller reports timeline.outOfRangeCpuEvents through
     * warnOutOfRangeOnce (the planner does, in filter order).
     */
    const CswitchColumns &filterColumns(const detail::TimelineSpec &spec,
                                        unsigned families) const;

    /**
     * Bytes held by the built columns (vector capacities), for the
     * session cache's budget. Grows as queries build columns for new
     * filters or families; never shrinks.
     */
    std::uint64_t memoryBytes() const;

    /**
     * Serialize the index's own columns into a portable byte blob
     * for the on-disk index cache (analysis/index_cache.hh): the GPU
     * and per-CPU-busy columns (built here if missing), plus, for
     * each pid set the index's own queries touched, its concurrency
     * checkpoints, dispatch column, wait intervals and frame
     * statistics. Slots and families built only for the query
     * planner's filters are not written, so the blob does not depend
     * on which query batches ran first.
     */
    std::string serializeColumns() const;

    /**
     * Populate a freshly constructed index from a serializeColumns()
     * blob instead of sweeping the bundle. Only legal before any
     * column build (fatal otherwise). Returns false with @p error set
     * when the blob is malformed, including a timeline whose CPU
     * count is not the header's, whose level leaves [0, CPU count],
     * or whose level or checkpoint column size disagrees with its
     * breakpoints; the index is left empty and usable for a normal
     * cold build. On success the index is marked
     * restored(): queries against pid sets or column families
     * absent from the blob fail loudly instead of silently
     * recomputing from a bundle whose cswitch stream the cache
     * intentionally omits.
     */
    bool adoptColumns(std::string_view data, std::string *error);

    /** True when the columns came from adoptColumns(). */
    bool restored() const { return restored_; }

    /** True when the cswitch columns of @p pids are already built. */
    bool hasCswitchColumns(const PidSet &pids) const;

    /**
     * Column layouts; defined in trace_index.cc (opaque to callers,
     * named here so the build/query helpers can take them).
     */
    struct GpuColumns;
    struct CpuBusyColumns;

    /**
     * The GPU packet columns, looked up once for many windowed
     * folds. fold(pids, t0, t1) is gpuUtil(pids, t0, t1) bit for
     * bit: two binary searches plus the window's candidate packets,
     * with no lock and no span (gpuUtil opens one per call). Valid
     * for the index's lifetime.
     */
    class GpuWindows
    {
      public:
        GpuUtilization fold(const PidSet &pids, sim::SimTime t0,
                            sim::SimTime t1) const;

      private:
        friend class TraceIndex;
        const TraceBundle *bundle_ = nullptr;
        const GpuColumns *columns_ = nullptr;
    };

    /** Build the GPU columns if missing; see GpuWindows. */
    GpuWindows gpuWindows() const;

  private:
    /** One filter's columns and build lock (trace_index.cc). */
    struct FilterSlot;

    /** Slot key: sorted pids, hasTid, tid (0 without), cpu mask. */
    using FilterKey = std::tuple<std::vector<trace::Pid>, bool,
                                 trace::Tid, detail::CpuMask>;

    static FilterKey filterKey(const detail::TimelineSpec &spec);
    /** The slot of @p spec, created empty on first use. */
    FilterSlot &slot(const detail::TimelineSpec &spec) const;
    /**
     * Sweep the @p families @p slot lacks, under its own mutex;
     * @p indexQuery marks the slot for serializeColumns.
     */
    void buildFamilies(FilterSlot &slot, unsigned families,
                       bool indexQuery = false) const;
    /** The default-filter slot of @p pids, index families built. */
    const FilterSlot &cswitchColumns(const PidSet &pids) const;
    const GpuColumns &gpuColumns() const;
    const CpuBusyColumns &cpuBusyColumns() const;

    const TraceBundle &bundle_;

    /** One warning per indexed trace (warnOutOfRangeOnce). */
    mutable std::atomic<bool> warnedOutOfRange_{false};

    /** Columns restored from a cache blob (adoptColumns). */
    mutable bool restored_ = false;

    /** Bytes of every built column (memoryBytes). */
    mutable std::atomic<std::uint64_t> columnBytes_{0};

    /** Guards the slot map (not the slots) and gpu_ / cpuBusy_. */
    mutable std::mutex mutex_;
    /** One slot per filter; slots are never erased once handed out. */
    mutable std::map<FilterKey, std::unique_ptr<FilterSlot>> slots_;
    mutable std::unique_ptr<GpuColumns> gpu_;
    mutable std::unique_ptr<CpuBusyColumns> cpuBusy_;
};

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_TRACE_INDEX_HH

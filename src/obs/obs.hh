/**
 * @file
 * Pipeline-wide observability: RAII spans and monotonic counters the
 * toolkit records about *itself* while it runs.
 *
 * The paper's whole method is characterizing applications from their
 * thread-activity timelines; this layer lets DeskPar do the same to
 * its own pipeline. Every instrumented hot path (suite-runner tasks,
 * parallel chunk/section decode, index builds and queries, report
 * emission) opens a Span; the records land in per-thread ring
 * buffers and are collected after the run into a Snapshot that
 * serializes two ways:
 *
 *  - a machine-readable JSON stats report (writeStatsJson), and
 *  - DeskPar's own .etl trace container (obs/selftrace.hh), where
 *    each span becomes a synthetic context-switch / GPU-packet
 *    stream — so `deskpar replay` and analysis::TraceIndex compute
 *    the TLP of DeskPar's own ingest/analysis run (Equation 1,
 *    pointed at ourselves).
 *
 * Cost model:
 *  - Compiled out (-DDESKPAR_OBS=OFF): Span/counterAdd are empty
 *    inlines; zero code, zero data.
 *  - Disabled at runtime (the default; enable with the DESKPAR_OBS=1
 *    environment variable or obs::setEnabled): one relaxed atomic
 *    load per span/counter, no allocation, no clock read. The
 *    zero-allocation guard test pins this down.
 *  - Enabled: two steady_clock reads plus one store into a
 *    preallocated single-producer ring per span. Buffers are
 *    recycled across pool threads, so memory is bounded by the peak
 *    concurrent thread count, not the total thread count.
 *
 * Threading: each ring is written only by its owner thread and
 * drained by collect() with acquire/release ordering (SPSC). A full
 * ring drops the record and counts the drop — instrumentation never
 * blocks the pipeline.
 */

#ifndef DESKPAR_OBS_OBS_HH
#define DESKPAR_OBS_OBS_HH

#include <atomic>
#include <cstdint>
#include <iosfwd>
#include <string>
#include <vector>

namespace deskpar::obs {

/**
 * Coarse span category. The self-trace exporter maps each kind to a
 * synthetic process ("deskpar.ingest", "deskpar.query", ...), so the
 * per-phase TLP of the pipeline falls out of the ordinary
 * application-level analysis machinery.
 */
enum class SpanKind : std::uint8_t {
    /** Generic parallel-pool work (worker loops, stolen tasks). */
    Task = 0,
    /** A suite job / simulation iteration / replay lifecycle. */
    Job = 1,
    /** Trace decode: CSV chunks, .etl sections, file ingest. */
    Ingest = 2,
    /** TraceIndex column builds. */
    Index = 3,
    /** Metric queries answered by the index. */
    Query = 4,
    /** Report/figure/JSON emission. */
    Report = 5,
    /** Anything else. */
    Other = 6,
    /** Query-plan compilation and fused batch execution. */
    Plan = 7,
    /** One `deskpar serve` request, demultiplexer to response. */
    Serve = 8,
};

/** Number of distinct span kinds (array sizing). */
inline constexpr unsigned kNumSpanKinds = 9;

/** Human-readable kind name ("task", "ingest", ...). */
const char *spanKindName(SpanKind kind);

/**
 * One closed span. @p name must be a string with static storage
 * duration (instrumentation sites pass literals); records store the
 * pointer, not a copy, so recording never allocates.
 */
struct SpanRecord
{
    const char *name = nullptr;
    /** Monotonic nanoseconds since the process obs epoch. */
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    /** Optional payload (bytes decoded, task index, ...). */
    std::uint64_t arg = 0;
    /** Logical thread slot (recycled across pool threads). */
    std::uint32_t thread = 0;
    /** Nesting depth at open (0 = outermost on its thread). */
    std::uint16_t depth = 0;
    SpanKind kind = SpanKind::Other;

    std::uint64_t durationNs() const { return endNs - startNs; }
};

/** Aggregated total of one counter across all threads. */
struct CounterTotal
{
    const char *name = nullptr;
    std::int64_t total = 0;
};

/**
 * Everything collect() drains: the closed spans of every thread
 * (sorted by start time), counter totals, and bookkeeping.
 */
struct Snapshot
{
    std::vector<SpanRecord> spans;
    std::vector<CounterTotal> counters;
    /** Spans lost to full rings (never blocks the pipeline). */
    std::uint64_t droppedSpans = 0;
    /** Logical thread slots that recorded at least once. */
    std::uint32_t threads = 0;

    bool empty() const { return spans.empty() && counters.empty(); }
};

/** Per-span-name aggregate for the stats report. */
struct SpanStat
{
    const char *name = nullptr;
    SpanKind kind = SpanKind::Other;
    std::uint64_t count = 0;
    std::uint64_t totalNs = 0;
    std::uint64_t minNs = 0;
    std::uint64_t maxNs = 0;
    /** Distinct threads the span ran on. */
    std::uint32_t threads = 0;

    double meanNs() const
    {
        return count ? static_cast<double>(totalNs) /
                           static_cast<double>(count)
                     : 0.0;
    }
};

#if !defined(DESKPAR_OBS_DISABLED)

namespace detail {

/** Single-producer ring of closed spans plus counter slots. */
class ThreadLog
{
  public:
    explicit ThreadLog(std::uint32_t id, std::size_t capacity);

    std::uint32_t id() const { return id_; }

    /** Owner thread only. */
    void push(const SpanRecord &record);
    void add(const char *name, std::int64_t delta);

    /** Collector side: drain published spans into @p out. */
    void drainInto(std::vector<SpanRecord> &out);
    /** Collector side: fold counter totals into @p out. */
    void countersInto(std::vector<CounterTotal> &out) const;
    /** Collector side: drops so far. */
    std::uint64_t dropped() const
    {
        return dropped_.load(std::memory_order_relaxed);
    }

    /** Collector side, quiescent only: zero everything (reset()). */
    void clear();

    /** Owner-thread nesting depth (maintained by Span). */
    std::uint16_t depth = 0;

  private:
    static constexpr std::size_t kMaxCounters = 64;

    std::uint32_t id_;
    std::vector<SpanRecord> ring_;
    std::atomic<std::uint64_t> head_{0};
    std::atomic<std::uint64_t> tail_{0};
    std::atomic<std::uint64_t> dropped_{0};

    struct CounterSlot
    {
        std::atomic<const char *> name{nullptr};
        std::atomic<std::int64_t> total{0};
    };
    CounterSlot counters_[kMaxCounters];
};

/** True when recording is on (env DESKPAR_OBS / setEnabled). */
inline std::atomic<bool> &
enabledFlag()
{
    extern std::atomic<bool> g_enabled;
    return g_enabled;
}

/** The calling thread's log, acquiring a recycled slot on first use. */
ThreadLog *threadLog();

/** Monotonic nanoseconds since the process obs epoch. */
std::uint64_t nowNs();

} // namespace detail

/** True when spans/counters are being recorded. */
inline bool
enabled()
{
    return detail::enabledFlag().load(std::memory_order_relaxed);
}

/**
 * Turn recording on/off programmatically (`deskpar stats`, tests).
 * The DESKPAR_OBS environment variable ("1"/"0") sets the initial
 * state; default off.
 */
void setEnabled(bool on);

/**
 * RAII span. Construction snapshots the clock when recording is on;
 * destruction publishes the closed record to the thread's ring.
 * Cheap enough for per-task/per-chunk granularity; not meant for
 * per-event inner loops.
 */
class Span
{
  public:
    explicit Span(const char *name, SpanKind kind = SpanKind::Other,
                  std::uint64_t arg = 0)
    {
        if (!enabled())
            return;
        log_ = detail::threadLog();
        name_ = name;
        kind_ = kind;
        arg_ = arg;
        depth_ = log_->depth++;
        startNs_ = detail::nowNs();
    }

    ~Span()
    {
        if (!log_)
            return;
        --log_->depth;
        SpanRecord record;
        record.name = name_;
        record.startNs = startNs_;
        record.endNs = detail::nowNs();
        record.arg = arg_;
        record.thread = log_->id();
        record.depth = depth_;
        record.kind = kind_;
        log_->push(record);
    }

    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;

    /** Attach/replace the payload after construction. */
    void setArg(std::uint64_t arg) { arg_ = arg; }

  private:
    detail::ThreadLog *log_ = nullptr;
    const char *name_ = nullptr;
    std::uint64_t startNs_ = 0;
    std::uint64_t arg_ = 0;
    std::uint16_t depth_ = 0;
    SpanKind kind_ = SpanKind::Other;
};

/**
 * Add @p delta to the per-thread counter @p name (a literal).
 * Totals are aggregated across threads at collect() time.
 */
inline void
counterAdd(const char *name, std::int64_t delta)
{
    if (!enabled())
        return;
    detail::threadLog()->add(name, delta);
}

#else // DESKPAR_OBS_DISABLED: compile the whole layer out.

inline bool enabled() { return false; }
inline void setEnabled(bool) {}

class Span
{
  public:
    explicit Span(const char *, SpanKind = SpanKind::Other,
                  std::uint64_t = 0)
    {}
    Span(const Span &) = delete;
    Span &operator=(const Span &) = delete;
    void setArg(std::uint64_t) {}
};

inline void counterAdd(const char *, std::int64_t) {}

#endif // DESKPAR_OBS_DISABLED

/**
 * Drain every thread's ring into one Snapshot, spans sorted by
 * (start, thread, depth). Safe while other threads keep recording —
 * they simply land in the next collect. Compiled-out builds return
 * an empty snapshot.
 */
Snapshot collect();

/**
 * Discard all pending records and counter totals. Registered thread
 * buffers stay alive (live threads keep their slots); call between
 * measured phases or tests.
 */
void reset();

/**
 * Ring capacity (spans per thread slot) for buffers created *after*
 * this call; existing buffers keep their size. Default 65536, or the
 * DESKPAR_OBS_BUFFER environment variable.
 */
void setRingCapacity(std::size_t spans);

/** Aggregate a snapshot per span name, sorted by total time desc. */
std::vector<SpanStat> aggregate(const Snapshot &snapshot);

/**
 * Machine-readable stats report: one JSON object with per-span-name
 * aggregates and counter totals (`deskpar stats`).
 */
void writeStatsJson(std::ostream &out, const Snapshot &snapshot);

} // namespace deskpar::obs

#endif // DESKPAR_OBS_OBS_HH

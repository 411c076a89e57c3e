#include "analysis/trace_index.hh"

#include <algorithm>
#include <cstdint>
#include <cstring>
#include <utility>

#include "analysis/concurrency_timeline.hh"
#include "analysis/intervals.hh"
#include "obs/obs.hh"
#include "sim/logging.hh"
#include "trace/container.hh"

namespace deskpar::analysis {

using sim::SimDuration;
using sim::SimTime;

/**
 * The columns of one row filter. `mutex` serializes this filter's
 * sweeps (and only this filter's) and guards every field below it;
 * `spec` is fixed at creation. A family's columns are written once,
 * before its bit is set in `built`, and never again, so readers that
 * got the reference back from buildFamilies read them lock-free.
 */
struct TraceIndex::FilterSlot
{
    detail::TimelineSpec spec;

    std::mutex mutex;
    /** CswitchFamily bits present in `columns`. */
    unsigned built = 0;
    CswitchColumns columns;

    /**
     * The index's own pid-set queries asked for this (default
     * filter) slot's cswitch families: serializeColumns writes it.
     */
    bool indexSwept = false;
    /** Frame statistics of the pid set (default-filter slots). */
    bool framesBuilt = false;
    FrameStats frames;
};

/**
 * Pid-agnostic GPU packet columns: the start-time column is binary
 * searchable when the stream is sorted, and the running-max finish
 * column bounds how far back a window's candidates can reach.
 */
struct TraceIndex::GpuColumns
{
    bool sortedByStart = true;
    std::vector<SimTime> starts;
    std::vector<SimTime> maxFinish;
};

/** Per-CPU busy intervals (pid-agnostic; the power estimate). */
struct TraceIndex::CpuBusyColumns
{
    std::map<trace::CpuId, std::vector<Interval>> busy;
};

namespace {

/** The cswitch families the index's own pid-set queries build. */
constexpr unsigned kIndexFamilies = TraceIndex::kTimeline |
                                    TraceIndex::kDispatches |
                                    TraceIndex::kWaits;

template <typename T>
std::uint64_t
vectorBytes(const std::vector<T> &v)
{
    return v.capacity() * sizeof(T);
}

/** Heap bytes of the @p families of @p c. */
std::uint64_t
familyBytes(const TraceIndex::CswitchColumns &c, unsigned families)
{
    std::uint64_t bytes = 0;
    if (families & TraceIndex::kTimeline)
        bytes += vectorBytes(c.timeline.times) +
                 vectorBytes(c.timeline.levels) +
                 vectorBytes(c.timeline.cum);
    if (families & TraceIndex::kDispatches)
        bytes += vectorBytes(c.dispatches);
    if (families & TraceIndex::kBursts)
        bytes += vectorBytes(c.bursts.bursts) +
                 vectorBytes(c.bursts.maxEnd) +
                 vectorBytes(c.bursts.bucketCum);
    if (families & TraceIndex::kWaits)
        bytes += vectorBytes(c.waits.begin) +
                 vectorBytes(c.waits.end) +
                 vectorBytes(c.waits.minBegin);
    return bytes;
}

std::uint64_t
cpuBusyBytes(const TraceIndex::CpuBusyColumns &cb)
{
    std::uint64_t bytes = 0;
    for (const auto &[cpu, intervals] : cb.busy)
        bytes += vectorBytes(intervals);
    return bytes;
}

/** The default filter of @p pids: no tid, every cpu. */
detail::TimelineSpec
defaultSpec(const PidSet &pids)
{
    detail::TimelineSpec spec;
    spec.pids = pids;
    return spec;
}

// ---- column-blob primitives (index cache serialization) ----

void
putZigzag(std::string &out, std::int64_t v)
{
    trace::putVarint(out, (static_cast<std::uint64_t>(v) << 1) ^
                              static_cast<std::uint64_t>(v >> 63));
}

void
putDoubleBits(std::string &out, double v)
{
    std::uint64_t bits;
    std::memcpy(&bits, &v, sizeof bits);
    for (int i = 0; i < 8; ++i)
        out.push_back(static_cast<char>((bits >> (8 * i)) & 0xff));
}

bool
getU64(std::string_view data, std::size_t &pos, std::uint64_t &value)
{
    value = 0;
    unsigned shift = 0;
    while (true) {
        if (pos >= data.size() || shift >= 64)
            return false;
        auto byte = static_cast<std::uint8_t>(data[pos++]);
        value |= static_cast<std::uint64_t>(byte & 0x7f) << shift;
        if (!(byte & 0x80))
            return true;
        shift += 7;
    }
}

bool
getZigzag(std::string_view data, std::size_t &pos,
          std::int64_t &value)
{
    std::uint64_t z = 0;
    if (!getU64(data, pos, z))
        return false;
    value = static_cast<std::int64_t>(z >> 1) ^
            -static_cast<std::int64_t>(z & 1);
    return true;
}

bool
getByte(std::string_view data, std::size_t &pos, std::uint8_t &value)
{
    if (pos >= data.size())
        return false;
    value = static_cast<std::uint8_t>(data[pos++]);
    return true;
}

bool
getDoubleBits(std::string_view data, std::size_t &pos, double &value)
{
    if (data.size() - pos < 8)
        return false;
    std::uint64_t bits = 0;
    for (int i = 0; i < 8; ++i)
        bits |= static_cast<std::uint64_t>(
                    static_cast<std::uint8_t>(data[pos + i]))
                << (8 * i);
    pos += 8;
    std::memcpy(&value, &bits, sizeof value);
    return true;
}

/** Bound an element count by the bytes left (each takes ≥ 1 byte). */
bool
getCount(std::string_view data, std::size_t &pos, std::uint64_t &n)
{
    return getU64(data, pos, n) && n <= data.size() - pos;
}

/** The serializeColumns()/adoptColumns() blob format version. */
constexpr std::uint64_t kColumnsVersion = 1;

} // namespace

TraceIndex::TraceIndex(const TraceBundle &bundle) : bundle_(bundle) {}

TraceIndex::~TraceIndex() = default;

TraceIndex::FilterKey
TraceIndex::filterKey(const detail::TimelineSpec &spec)
{
    std::vector<trace::Pid> pids(spec.pids.begin(), spec.pids.end());
    std::sort(pids.begin(), pids.end());
    return FilterKey{std::move(pids), spec.hasTid,
                     spec.hasTid ? spec.tid : 0, spec.cpuMask};
}

TraceIndex::FilterSlot &
TraceIndex::slot(const detail::TimelineSpec &spec) const
{
    FilterKey key = filterKey(spec);
    std::lock_guard<std::mutex> lock(mutex_);
    std::unique_ptr<FilterSlot> &slot = slots_[std::move(key)];
    if (!slot) {
        slot = std::make_unique<FilterSlot>();
        slot->spec = spec;
    }
    return *slot;
}

void
TraceIndex::buildFamilies(FilterSlot &slot, unsigned families,
                          bool indexQuery) const
{
    std::lock_guard<std::mutex> lock(slot.mutex);
    unsigned missing = (families | kTimeline) & ~slot.built;
    if (missing != 0) {
        // A restored index has no cswitch stream to sweep — the
        // cache intentionally drops it. Recomputing here would
        // silently return empty columns; fail loudly instead.
        if (restored_)
            deskpar::fatal(
                "TraceIndex: pid set not present in the restored "
                "index cache (reopen the trace with a cold ingest)");

        // One fused sweep fills every missing family. A filter's
        // later sweeps (families first asked for by a later batch)
        // rebuild the timeline into scratch: the kept one may be
        // being read.
        obs::Span span("index.build.cswitch", obs::SpanKind::Index,
                       bundle_.cswitches.size());
        CswitchColumns &c = slot.columns;
        detail::ConcurrencyTimeline scratch;
        detail::buildConcurrencyTimeline(
            bundle_, slot.spec,
            (missing & kTimeline) ? c.timeline : scratch,
            (missing & kDispatches) ? &c.dispatches : nullptr,
            (missing & kBursts) ? &c.bursts : nullptr,
            (missing & kWaits) ? &c.waits : nullptr);
        slot.built |= missing;
        columnBytes_.fetch_add(familyBytes(c, missing),
                               std::memory_order_relaxed);
    }
    slot.indexSwept = slot.indexSwept || indexQuery;
}

const TraceIndex::CswitchColumns &
TraceIndex::filterColumns(const detail::TimelineSpec &spec,
                          unsigned families) const
{
    FilterSlot &s = slot(spec);
    buildFamilies(s, families);
    return s.columns;
}

const TraceIndex::FilterSlot &
TraceIndex::cswitchColumns(const PidSet &pids) const
{
    FilterSlot &s = slot(defaultSpec(pids));
    buildFamilies(s, kIndexFamilies, /*indexQuery=*/true);
    const detail::ConcurrencyTimeline &tl = s.columns.timeline;
    warnOutOfRangeOnce(tl.outOfRangeCpuEvents, tl.cutoff);
    return s;
}

std::uint64_t
TraceIndex::memoryBytes() const
{
    return columnBytes_.load(std::memory_order_relaxed);
}

void
TraceIndex::warnOutOfRangeOnce(std::uint64_t count,
                               unsigned header_cpus) const
{
    if (count == 0 || header_cpus == 0)
        return;
    trace::emitDiagnosticOnce(
        warnedOutOfRange_,
        detail::outOfRangeCpusDiagnostic(count, header_cpus));
}

const TraceIndex::GpuColumns &
TraceIndex::gpuColumns() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!gpu_) {
        obs::Span span("index.build.gpu", obs::SpanKind::Index,
                       bundle_.gpuPackets.size());
        auto gc = std::make_unique<GpuColumns>();
        const auto &packets = bundle_.gpuPackets;
        gc->starts.reserve(packets.size());
        gc->maxFinish.reserve(packets.size());
        SimTime mx = 0;
        for (std::size_t i = 0; i < packets.size(); ++i) {
            if (i > 0 && packets[i].start < packets[i - 1].start)
                gc->sortedByStart = false;
            gc->starts.push_back(packets[i].start);
            mx = i == 0 ? packets[i].finish
                        : std::max(mx, packets[i].finish);
            gc->maxFinish.push_back(mx);
        }
        columnBytes_.fetch_add(vectorBytes(gc->starts) +
                                   vectorBytes(gc->maxFinish),
                               std::memory_order_relaxed);
        gpu_ = std::move(gc);
    }
    return *gpu_;
}

const TraceIndex::CpuBusyColumns &
TraceIndex::cpuBusyColumns() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (!cpuBusy_) {
        if (restored_)
            deskpar::fatal(
                "TraceIndex: per-CPU busy columns missing from the "
                "restored index cache (reopen the trace with a cold "
                "ingest)");
        obs::Span span("index.build.cpubusy", obs::SpanKind::Index,
                       bundle_.cswitches.size());
        auto cb = std::make_unique<CpuBusyColumns>();
        cb->busy = detail::cpuBusyIntervals(bundle_);
        columnBytes_.fetch_add(cpuBusyBytes(*cb),
                               std::memory_order_relaxed);
        cpuBusy_ = std::move(cb);
    }
    return *cpuBusy_;
}

ConcurrencyProfile
TraceIndex::concurrency(const PidSet &pids, SimTime t0,
                        SimTime t1) const
{
    obs::Span span("index.query.concurrency", obs::SpanKind::Query);
    if (bundle_.numLogicalCpus == 0)
        deskpar::fatal("computeConcurrency: unknown CPU count");
    if (t1 <= t0)
        deskpar::fatal("computeConcurrency: empty window");
    ConcurrencyProfile profile;
    detail::ConcurrencyCursor(cswitchColumns(pids).columns.timeline)
        .window(t0, t1, profile);
    return profile;
}

ConcurrencyProfile
TraceIndex::concurrency(const PidSet &pids) const
{
    return concurrency(pids, bundle_.startTime, bundle_.stopTime);
}

const detail::ConcurrencyTimeline &
TraceIndex::concurrencyTimeline(const PidSet &pids) const
{
    if (bundle_.numLogicalCpus == 0)
        deskpar::fatal("computeConcurrency: unknown CPU count");
    return cswitchColumns(pids).columns.timeline;
}

TraceIndex::GpuWindows
TraceIndex::gpuWindows() const
{
    GpuWindows windows;
    windows.bundle_ = &bundle_;
    windows.columns_ = &gpuColumns();
    return windows;
}

GpuUtilization
TraceIndex::gpuUtil(const PidSet &pids, SimTime t0, SimTime t1) const
{
    obs::Span span("index.query.gpu", obs::SpanKind::Query);
    return gpuWindows().fold(pids, t0, t1);
}

GpuUtilization
TraceIndex::GpuWindows::fold(const PidSet &pids, SimTime t0,
                             SimTime t1) const
{
    if (t1 <= t0)
        deskpar::fatal("computeGpuUtil: empty window");

    const GpuColumns &gc = *columns_;
    std::size_t first = 0;
    std::size_t last = bundle_->gpuPackets.size();
    if (gc.sortedByStart) {
        // Packets intersecting [t0, t1) start before t1 and have not
        // finished by t0; the running-max finish column is monotone,
        // so both bounds are binary searches.
        last = static_cast<std::size_t>(
            std::lower_bound(gc.starts.begin(), gc.starts.end(), t1) -
            gc.starts.begin());
        first = static_cast<std::size_t>(
            std::upper_bound(gc.maxFinish.begin(),
                             gc.maxFinish.begin() +
                                 static_cast<std::ptrdiff_t>(last),
                             t0) -
            gc.maxFinish.begin());
    }
    return detail::foldGpuPackets(*bundle_, pids, t0, t1, first, last,
                                  gc.sortedByStart);
}

GpuUtilization
TraceIndex::gpuUtil(const PidSet &pids) const
{
    return gpuUtil(pids, bundle_.startTime, bundle_.stopTime);
}

FrameStats
TraceIndex::frameStats(const PidSet &pids) const
{
    obs::Span span("index.query.frames", obs::SpanKind::Query);
    FilterSlot &s = slot(defaultSpec(pids));
    std::lock_guard<std::mutex> lock(s.mutex);
    if (!s.framesBuilt) {
        obs::Span buildSpan("index.build.frames",
                            obs::SpanKind::Index,
                            bundle_.frames.size());
        s.frames = detail::frameStats(bundle_, pids);
        s.framesBuilt = true;
    }
    return s.frames;
}

Responsiveness
TraceIndex::responsiveness(const PidSet &pids) const
{
    obs::Span span("index.query.responsiveness",
                   obs::SpanKind::Query);
    return detail::responsivenessFromDispatches(
        bundle_, cswitchColumns(pids).columns.dispatches);
}

PowerEstimate
TraceIndex::power(const sim::CpuSpec &cpu,
                  const sim::GpuSpec &gpu) const
{
    obs::Span span("index.query.power", obs::SpanKind::Query);
    PowerEstimate out;
    out.seconds = sim::toSeconds(bundle_.duration());
    if (bundle_.duration() == 0)
        return out;
    GpuUtilization util = gpuUtil(PidSet{});
    return detail::powerFromBusyIntervals(cpuBusyColumns().busy,
                                          out.seconds,
                                          util.busyRatio, cpu, gpu);
}

void
TraceIndex::warm(const PidSet &pids) const
{
    cswitchColumns(pids);
    frameStats(pids);
    gpuColumns();
}

bool
TraceIndex::hasCswitchColumns(const PidSet &pids) const
{
    FilterKey key = filterKey(defaultSpec(pids));
    FilterSlot *s = nullptr;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        auto it = slots_.find(key);
        if (it == slots_.end())
            return false;
        s = it->second.get();
    }
    std::lock_guard<std::mutex> lock(s->mutex);
    return (s->built & kIndexFamilies) == kIndexFamilies;
}

std::string
TraceIndex::serializeColumns() const
{
    // Build the pid-agnostic families first (their builders take the
    // same mutex the serialization walk holds).
    const GpuColumns &gc = gpuColumns();
    const CpuBusyColumns &cb = cpuBusyColumns();

    obs::Span span("index.serialize", obs::SpanKind::Index);

    // The slots the index's own pid-set queries touched, in key
    // order (sorted pids, as blob v1 lists them). Flags are read
    // under each slot's mutex; what they vouch for is immutable.
    struct Spilled
    {
        const std::vector<trace::Pid> *pids;
        const FilterSlot *slot;
        bool cswitch;
        bool frames;
    };
    std::vector<Spilled> spilled;
    {
        std::lock_guard<std::mutex> lock(mutex_);
        for (const auto &[key, slot] : slots_) {
            const auto &[pids, hasTid, tid, mask] = key;
            if (hasTid || mask != detail::kAllCpus)
                continue;
            std::lock_guard<std::mutex> slotLock(slot->mutex);
            if (!slot->indexSwept && !slot->framesBuilt)
                continue;
            spilled.push_back(Spilled{&pids, slot.get(),
                                      slot->indexSwept,
                                      slot->framesBuilt});
        }
    }

    std::string out;
    trace::putVarint(out, kColumnsVersion);

    out.push_back(gc.sortedByStart ? 1 : 0);
    trace::putVarint(out, gc.starts.size());
    SimTime prev = 0;
    for (SimTime s : gc.starts) { // may be unsorted → zigzag deltas
        putZigzag(out, static_cast<std::int64_t>(s - prev));
        prev = s;
    }
    prev = 0;
    for (SimTime f : gc.maxFinish) { // running max → plain deltas
        trace::putVarint(out, f - prev);
        prev = f;
    }

    trace::putVarint(out, cb.busy.size());
    for (const auto &[cpu, intervals] : cb.busy) {
        trace::putVarint(out, cpu);
        trace::putVarint(out, intervals.size());
        prev = 0;
        for (const Interval &iv : intervals) {
            putZigzag(out, static_cast<std::int64_t>(iv.begin - prev));
            prev = iv.begin;
            trace::putVarint(out, iv.end - iv.begin);
        }
    }

    trace::putVarint(out, spilled.size());
    for (const Spilled &entry : spilled) {
        trace::putVarint(out, entry.pids->size());
        trace::Pid prevPid = 0;
        for (trace::Pid pid : *entry.pids) { // key is sorted
            trace::putVarint(out, pid - prevPid);
            prevPid = pid;
        }
        const CswitchColumns &c = entry.slot->columns;
        out.push_back(entry.cswitch ? 1 : 0);
        if (entry.cswitch) {
            const detail::ConcurrencyTimeline &tl = c.timeline;
            out.push_back(1); // blob v1's timeline flag; always set
            trace::putVarint(out, tl.cutoff);
            trace::putVarint(out, tl.outOfRangeCpuEvents);
            trace::putVarint(out, tl.times.size());
            prev = 0;
            for (SimTime t : tl.times) { // sorted breakpoints
                trace::putVarint(out, t - prev);
                prev = t;
            }
            trace::putVarint(out, tl.levels.size());
            for (int level : tl.levels)
                putZigzag(out, level);
            trace::putVarint(out, tl.cum.size());
            for (SimDuration d : tl.cum)
                trace::putVarint(out, d);
            trace::putVarint(out, c.dispatches.size());
            prev = 0;
            for (SimTime t : c.dispatches) { // sorted
                trace::putVarint(out, t - prev);
                prev = t;
            }
            trace::putVarint(out, c.waits.begin.size());
            prev = 0;
            for (SimTime t : c.waits.begin) {
                putZigzag(out, static_cast<std::int64_t>(t - prev));
                prev = t;
            }
            prev = 0;
            for (SimTime t : c.waits.end) { // end-sorted
                trace::putVarint(out, t - prev);
                prev = t;
            }
            // minBegin is the suffix minimum of the begin column in
            // this order — recomputed on adopt, never stored.
        }
        out.push_back(entry.frames ? 1 : 0);
        if (entry.frames) {
            const FrameStats &frames = entry.slot->frames;
            trace::putVarint(out, frames.frames);
            trace::putVarint(out, frames.synthesizedFrames);
            putDoubleBits(out, frames.avgFps);
            putDoubleBits(out, frames.fpsStddev);
            putDoubleBits(out, frames.onePercentLowFps);
        }
    }
    return out;
}

bool
TraceIndex::adoptColumns(std::string_view data, std::string *error)
{
    std::lock_guard<std::mutex> lock(mutex_);
    if (gpu_ || cpuBusy_ || !slots_.empty())
        deskpar::fatal(
            "TraceIndex::adoptColumns: columns already built");
    obs::Span span("index.adopt", obs::SpanKind::Index, data.size());

    auto fail = [&](const char *what) {
        if (error)
            *error = what;
        gpu_.reset();
        cpuBusy_.reset();
        slots_.clear();
        return false;
    };

    std::size_t pos = 0;
    std::uint64_t v = 0;
    if (!getU64(data, pos, v) || v != kColumnsVersion)
        return fail("unsupported index-columns version");

    std::uint8_t flag = 0;
    if (!getByte(data, pos, flag))
        return fail("truncated GPU columns");
    auto gc = std::make_unique<GpuColumns>();
    gc->sortedByStart = flag != 0;
    std::uint64_t n = 0;
    if (!getCount(data, pos, n))
        return fail("corrupt GPU column count");
    gc->starts.reserve(static_cast<std::size_t>(n));
    gc->maxFinish.reserve(static_cast<std::size_t>(n));
    SimTime prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::int64_t d = 0;
        if (!getZigzag(data, pos, d))
            return fail("truncated GPU start column");
        prev += static_cast<std::uint64_t>(d);
        gc->starts.push_back(prev);
    }
    prev = 0;
    for (std::uint64_t i = 0; i < n; ++i) {
        std::uint64_t d = 0;
        if (!getU64(data, pos, d))
            return fail("truncated GPU finish column");
        prev += d;
        gc->maxFinish.push_back(prev);
    }

    auto cb = std::make_unique<CpuBusyColumns>();
    std::uint64_t cpus = 0;
    if (!getCount(data, pos, cpus))
        return fail("corrupt CPU-busy map size");
    for (std::uint64_t c = 0; c < cpus; ++c) {
        std::uint64_t cpu = 0, count = 0;
        if (!getU64(data, pos, cpu) || !getCount(data, pos, count))
            return fail("corrupt CPU-busy entry");
        auto &intervals = cb->busy[static_cast<trace::CpuId>(cpu)];
        intervals.reserve(static_cast<std::size_t>(count));
        prev = 0;
        for (std::uint64_t i = 0; i < count; ++i) {
            std::int64_t db = 0;
            std::uint64_t len = 0;
            if (!getZigzag(data, pos, db) || !getU64(data, pos, len))
                return fail("truncated CPU-busy intervals");
            prev += static_cast<std::uint64_t>(db);
            intervals.push_back(Interval{prev, prev + len});
        }
    }

    std::uint64_t sets = 0;
    if (!getCount(data, pos, sets))
        return fail("corrupt pid-set count");
    for (std::uint64_t s = 0; s < sets; ++s) {
        std::uint64_t pidCount = 0;
        if (!getCount(data, pos, pidCount))
            return fail("corrupt pid-set size");
        std::vector<trace::Pid> key;
        key.reserve(static_cast<std::size_t>(pidCount));
        trace::Pid prevPid = 0;
        for (std::uint64_t i = 0; i < pidCount; ++i) {
            std::uint64_t d = 0;
            if (!getU64(data, pos, d))
                return fail("truncated pid set");
            prevPid += static_cast<trace::Pid>(d);
            key.push_back(prevPid);
        }
        auto cols = std::make_unique<FilterSlot>();
        cols->spec.pids = PidSet(key.begin(), key.end());

        if (!getByte(data, pos, flag))
            return fail("truncated cswitch-built flag");
        if (flag) {
            detail::ConcurrencyTimeline &tl = cols->columns.timeline;
            if (!getByte(data, pos, flag))
                return fail("truncated timeline header");
            if (flag != 1)
                return fail("timeline flag is not set");
            std::uint64_t cutoff = 0;
            if (!getU64(data, pos, cutoff) ||
                !getU64(data, pos, tl.outOfRangeCpuEvents))
                return fail("truncated timeline header");
            // Queries trust a timeline's CPU count to be the
            // header's; a blob that disagrees is not this trace's.
            if (cutoff != bundle_.numLogicalCpus)
                return fail("timeline CPU count differs from the "
                            "trace header");
            tl.cutoff = static_cast<unsigned>(cutoff);
            if (!getCount(data, pos, n))
                return fail("corrupt timeline size");
            tl.times.reserve(static_cast<std::size_t>(n));
            prev = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                std::uint64_t d = 0;
                if (!getU64(data, pos, d))
                    return fail("truncated timeline times");
                prev += d;
                tl.times.push_back(prev);
            }
            if (!getCount(data, pos, n))
                return fail("corrupt level-column size");
            // The cursor indexes its level buffers and the
            // checkpoint rows with these columns as they stand, so a
            // blob whose shapes disagree is refused, not trusted.
            if (n != tl.times.size())
                return fail("level column size differs from the "
                            "timeline's");
            tl.levels.reserve(static_cast<std::size_t>(n));
            for (std::uint64_t i = 0; i < n; ++i) {
                std::int64_t level = 0;
                if (!getZigzag(data, pos, level))
                    return fail("truncated level column");
                if (level < 0 || static_cast<std::uint64_t>(level) > cutoff)
                    return fail("timeline level outside [0, CPU count]");
                tl.levels.push_back(static_cast<int>(level));
            }
            if (!getCount(data, pos, n))
                return fail("corrupt checkpoint size");
            const std::size_t rows =
                tl.times.empty()
                    ? 0
                    : (tl.times.size() - 1) /
                              detail::ConcurrencyTimeline::kStride +
                          1;
            if (n != rows * (cutoff + 1))
                return fail("checkpoint column size differs from the "
                            "timeline's");
            tl.cum.reserve(static_cast<std::size_t>(n));
            for (std::uint64_t i = 0; i < n; ++i) {
                std::uint64_t d = 0;
                if (!getU64(data, pos, d))
                    return fail("truncated checkpoint column");
                tl.cum.push_back(d);
            }
            if (!getCount(data, pos, n))
                return fail("corrupt dispatch-column size");
            cols->columns.dispatches.reserve(static_cast<std::size_t>(n));
            prev = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                std::uint64_t d = 0;
                if (!getU64(data, pos, d))
                    return fail("truncated dispatch column");
                prev += d;
                cols->columns.dispatches.push_back(prev);
            }
            if (!getCount(data, pos, n))
                return fail("corrupt wait-column size");
            detail::WaitColumns &w = cols->columns.waits;
            w.begin.reserve(static_cast<std::size_t>(n));
            w.end.reserve(static_cast<std::size_t>(n));
            w.minBegin.reserve(static_cast<std::size_t>(n));
            prev = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                std::int64_t d = 0;
                if (!getZigzag(data, pos, d))
                    return fail("truncated wait begins");
                prev += static_cast<std::uint64_t>(d);
                w.begin.push_back(prev);
            }
            prev = 0;
            for (std::uint64_t i = 0; i < n; ++i) {
                std::uint64_t d = 0;
                if (!getU64(data, pos, d))
                    return fail("truncated wait ends");
                prev += d;
                w.end.push_back(prev);
            }
            // Rebuild the suffix-minimum column the serializer
            // elides; one reverse pass over the decoded begins.
            w.minBegin.assign(w.begin.size(), 0);
            SimTime mn = 0;
            for (std::size_t i = w.begin.size(); i-- > 0;) {
                mn = i + 1 == w.begin.size()
                         ? w.begin[i]
                         : std::min(mn, w.begin[i]);
                w.minBegin[i] = mn;
            }
            cols->built = kIndexFamilies;
            cols->indexSwept = true;
        }

        if (!getByte(data, pos, flag))
            return fail("truncated frames-built flag");
        if (flag) {
            std::uint64_t frames = 0, synth = 0;
            if (!getU64(data, pos, frames) ||
                !getU64(data, pos, synth) ||
                !getDoubleBits(data, pos, cols->frames.avgFps) ||
                !getDoubleBits(data, pos, cols->frames.fpsStddev) ||
                !getDoubleBits(data, pos,
                               cols->frames.onePercentLowFps))
                return fail("truncated frame statistics");
            cols->frames.frames = static_cast<std::size_t>(frames);
            cols->frames.synthesizedFrames =
                static_cast<std::size_t>(synth);
            cols->framesBuilt = true;
        }
        slots_[FilterKey{std::move(key), false, 0, detail::kAllCpus}] =
            std::move(cols);
    }
    if (pos != data.size())
        return fail("trailing bytes in index-columns blob");

    std::uint64_t bytes = vectorBytes(gc->starts) +
                          vectorBytes(gc->maxFinish) + cpuBusyBytes(*cb);
    for (const auto &[key, slot] : slots_)
        bytes += familyBytes(slot->columns, slot->built);
    columnBytes_.store(bytes, std::memory_order_relaxed);
    gpu_ = std::move(gc);
    cpuBusy_ = std::move(cb);
    restored_ = true;
    return true;
}

} // namespace deskpar::analysis

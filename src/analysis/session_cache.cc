#include "analysis/session_cache.hh"

#include <exception>
#include <utility>
#include <vector>

#include "obs/obs.hh"
#include "sim/logging.hh"

namespace deskpar::analysis {

namespace {

std::string
slotKey(const std::string &path, trace::ParseMode mode)
{
    // \x1f cannot appear in the mode tag, so keys never collide
    // across (path, mode) pairs even for adversarial paths.
    return path + '\x1f' +
           (mode == trace::ParseMode::Lenient ? 'L' : 'S');
}

} // namespace

struct SessionCache::Slot
{
    enum class State { Loading, Ready, Failed };

    std::mutex mutex;
    std::condition_variable cv;
    State state = State::Loading;

    TraceIdentity identity;
    std::shared_ptr<const Session> session;
    std::shared_ptr<const trace::IngestReport> report;
    trace::IngestStats ingest;
    /** Charged against the cache budget while resident. */
    std::uint64_t bytes = 0;
    /** LRU stamp (cache clock_); only meaningful while resident. */
    std::uint64_t lastUse = 0;
    /** Still accounted in residentBytes_ / eligible for eviction. */
    bool resident = false;
    /** Set with state == Failed; rethrown to every waiter. */
    std::exception_ptr error;
};

SessionCache::SessionCache(const SessionCacheOptions &options)
    : options_(options)
{}

SessionCache::~SessionCache() = default;

void
SessionCache::fill(Slot &slot, const std::string &path,
                   trace::ParseMode mode)
{
    obs::Span span("serve.session.ingest", obs::SpanKind::Ingest);

    std::string error;
    if (!probeTraceIdentity(path, slot.identity, error))
        fatal(error);

    // The cold open warms the whole-trace columns before the Session
    // is published: every later reader then takes the lock-free fast
    // path, and the build cost lands on the cold request that caused
    // the ingest, where the latency is expected.
    OpenOptions options;
    options.parse.mode = mode;
    options.useCache = false;
    options.refreshCache = false;
    OpenResult opened = openSession(path, options);
    // A lenient ingest publishes what it salvaged, but a refused
    // header leaves nothing to salvage: it fails in both modes.
    if (!opened.report.ok() && (mode == trace::ParseMode::Strict ||
                                opened.report.headerRefused())) {
        if (!opened.report.errors.empty())
            throw trace::TraceParseError(opened.report.errors.front());
        trace::ParseError generic;
        generic.source = path;
        generic.section = "ingest";
        generic.reason = opened.report.summary();
        throw trace::TraceParseError(std::move(generic));
    }
    slot.ingest = opened.ingest;

    slot.bytes = opened.session->memoryBytes();
    slot.session = std::move(opened.session);
    slot.report = std::make_shared<const trace::IngestReport>(
        std::move(opened.report));
}

SessionCache::Lease
SessionCache::acquire(const std::string &path, trace::ParseMode mode)
{
    std::string key = slotKey(path, mode);
    while (true) {
        std::shared_ptr<Slot> slot;
        bool filler = false;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = slots_.find(key);
            if (it != slots_.end()) {
                slot = it->second;
            } else {
                slot = std::make_shared<Slot>();
                slots_.emplace(key, slot);
                ++counters_.misses;
                filler = true;
            }
        }

        if (filler) {
            try {
                fill(*slot, path, mode);
            } catch (...) {
                {
                    std::lock_guard<std::mutex> lock(mutex_);
                    auto it = slots_.find(key);
                    if (it != slots_.end() && it->second == slot)
                        slots_.erase(it);
                }
                std::lock_guard<std::mutex> slock(slot->mutex);
                slot->state = Slot::State::Failed;
                slot->error = std::current_exception();
                slot->cv.notify_all();
                throw;
            }
            {
                std::lock_guard<std::mutex> lock(mutex_);
                ++counters_.ingests;
                slot->resident = true;
                slot->lastUse = ++clock_;
                residentBytes_ += slot->bytes;
                enforceBudgetLocked(slot.get());
            }
            std::lock_guard<std::mutex> slock(slot->mutex);
            slot->state = Slot::State::Ready;
            slot->cv.notify_all();
            return Lease{slot->session, slot->report, slot->ingest,
                         /*warm=*/false};
        }

        {
            std::unique_lock<std::mutex> slock(slot->mutex);
            slot->cv.wait(slock, [&] {
                return slot->state != Slot::State::Loading;
            });
            if (slot->state == Slot::State::Failed)
                std::rethrow_exception(slot->error);
        }

        // Ready hit: serve only while the on-disk file still matches
        // the identity we ingested. A failed probe (file deleted) or
        // a mismatch drops the entry and retries cold.
        TraceIdentity current;
        std::string error;
        bool fresh = probeTraceIdentity(path, current, error) &&
                     current == slot->identity;
        {
            std::lock_guard<std::mutex> lock(mutex_);
            auto it = slots_.find(key);
            bool mapped = it != slots_.end() && it->second == slot;
            if (fresh) {
                if (mapped)
                    slot->lastUse = ++clock_;
                ++counters_.hits;
                return Lease{slot->session, slot->report,
                             slot->ingest, /*warm=*/true};
            }
            if (mapped)
                dropLocked(key, *slot, counters_.invalidations);
        }
        // Stale: loop around and ingest the new bytes.
    }
}

void
SessionCache::recharge(const Lease &lease)
{
    if (!lease.session)
        return;
    std::uint64_t bytes = lease.session->memoryBytes();
    std::lock_guard<std::mutex> lock(mutex_);
    for (auto &entry : slots_) {
        Slot &slot = *entry.second;
        // A Loading slot's fields belong to its filler thread; only
        // a resident slot's session is safe to read here.
        if (!slot.resident || slot.session != lease.session)
            continue;
        if (bytes > slot.bytes) {
            residentBytes_ += bytes - slot.bytes;
            slot.bytes = bytes;
            enforceBudgetLocked(&slot);
        }
        return;
    }
}

void
SessionCache::invalidate(const std::string &path)
{
    std::lock_guard<std::mutex> lock(mutex_);
    for (trace::ParseMode mode :
         {trace::ParseMode::Strict, trace::ParseMode::Lenient}) {
        auto it = slots_.find(slotKey(path, mode));
        if (it != slots_.end()) {
            auto slot = it->second;
            dropLocked(it->first, *slot, counters_.invalidations);
        }
    }
}

SessionCacheStats
SessionCache::stats() const
{
    std::lock_guard<std::mutex> lock(mutex_);
    SessionCacheStats stats = counters_;
    stats.residentBytes = residentBytes_;
    stats.entries = slots_.size();
    return stats;
}

void
SessionCache::dropLocked(const std::string &key, Slot &slot,
                         std::uint64_t &counter)
{
    if (slot.resident) {
        residentBytes_ -= slot.bytes;
        slot.resident = false;
    }
    ++counter;
    slots_.erase(key);
}

void
SessionCache::enforceBudgetLocked(const Slot *keep)
{
    while (residentBytes_ > options_.maxBytes) {
        const std::string *victimKey = nullptr;
        Slot *victim = nullptr;
        for (auto &entry : slots_) {
            Slot *slot = entry.second.get();
            // Loading slots are not yet resident; the just-inserted
            // entry is exempt so a single over-budget trace can
            // still be served (it becomes the next victim).
            if (!slot->resident || slot == keep)
                continue;
            if (!victim || slot->lastUse < victim->lastUse) {
                victimKey = &entry.first;
                victim = slot;
            }
        }
        if (!victim)
            break;
        // dropLocked erases the map node *victimKey points into, so
        // copy the key first. In-flight leases keep the Session
        // alive through their shared_ptr; only the cache lets go.
        std::string key = *victimKey;
        auto hold = slots_[key];
        dropLocked(key, *victim, counters_.evictions);
    }
}

} // namespace deskpar::analysis

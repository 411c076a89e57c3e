/**
 * @file
 * Byte-bounded LRU cache of resident analysis Sessions — the memory
 * behind `deskpar serve`.
 *
 * A cold trace open costs an mmap + full ingest + the index's fused
 * cswitch sweep; a resident service must pay that once per file, not
 * once per request. The cache keys entries by trace file *identity*
 * (size / mtime / hash of both 64 KiB ends — the same TraceIdentity the
 * .dpidx spill cache uses, see index_cache.hh) plus parse mode, and
 * holds fully materialized Sessions (bundle + index), so every
 * request the toolkit knows — metrics, fused queries, bottleneck
 * sweeps — is answerable from a hit.
 *
 * Contracts:
 *
 *  - **Single ingest under racing opens.** Two clients asking for the
 *    same (path, mode) at once share one ingest: the first request
 *    creates a Loading slot and ingests outside the cache-wide lock;
 *    later requests block on the slot and receive the same shared
 *    Session. `stats().ingests` counts real ingests, which the
 *    concurrency tests pin to 1 for N racers.
 *
 *  - **Identity invalidation.** Every hit re-probes the file's
 *    identity (stat + a hash of the first and last 64 KiB). A trace
 *    rewritten at either end, even in place with its size and mtime
 *    kept, never serves stale results: the mismatching entry is
 *    dropped and re-ingested.
 *
 *  - **Eviction by bytes.** Entry cost is Session::memoryBytes():
 *    the bundle estimate plus the index columns and memoized reports
 *    the Session has built. Requests grow that state (a query batch
 *    over a new filter keeps its columns), so the caller re-charges
 *    the entry with recharge() after a request. When the resident
 *    total exceeds maxBytes, least-recently-used Ready entries are
 *    dropped until it fits (in-flight leases keep their Session
 *    alive via shared_ptr; eviction only severs the cache's
 *    reference). A single entry larger than the whole budget is
 *    admitted — and becomes the first eviction victim when anything
 *    else arrives.
 *
 *  - **Failure is not cached.** An ingest that throws removes the
 *    Loading slot and rethrows to every waiter; the next acquire
 *    retries from scratch.
 *
 * Thread safety: every public method is safe to call concurrently.
 */

#ifndef DESKPAR_ANALYSIS_SESSION_CACHE_HH
#define DESKPAR_ANALYSIS_SESSION_CACHE_HH

#include <condition_variable>
#include <cstdint>
#include <map>
#include <memory>
#include <mutex>
#include <string>

#include "analysis/index_cache.hh"
#include "analysis/session.hh"
#include "trace/parse.hh"

namespace deskpar::analysis {

struct SessionCacheOptions
{
    /** Resident-bytes budget before LRU eviction kicks in. */
    std::uint64_t maxBytes = 256ull << 20;
};

/** Counters for the `/stats` endpoint and the cache tests. */
struct SessionCacheStats
{
    std::uint64_t hits = 0;
    std::uint64_t misses = 0;
    /** Cold ingests actually performed (<= misses under racing). */
    std::uint64_t ingests = 0;
    std::uint64_t evictions = 0;
    /** Entries dropped because the file changed underneath them. */
    std::uint64_t invalidations = 0;
    std::uint64_t residentBytes = 0;
    std::uint64_t entries = 0;
};

class SessionCache
{
  public:
    explicit SessionCache(const SessionCacheOptions &options = {});
    ~SessionCache();

    SessionCache(const SessionCache &) = delete;
    SessionCache &operator=(const SessionCache &) = delete;

    /**
     * One acquired resident trace. The shared_ptrs pin the Session
     * (and its cold-ingest report) for the lease's lifetime, so a
     * concurrent eviction can never pull a Session out from under a
     * running request.
     */
    struct Lease
    {
        std::shared_ptr<const Session> session;
        /** The cold ingest's report (ok() == false => degraded). */
        std::shared_ptr<const trace::IngestReport> report;
        /** File size + map/decode wall time of the cold open. */
        trace::IngestStats ingest;
        /** True when served without performing an ingest. */
        bool warm = false;
    };

    /**
     * Open @p path resident: return the cached Session when the file
     * identity still matches, else cold-open it with openSession (no
     * .dpidx read or write; trace::decodeTraceFile picks the format),
     * and cache it.
     * Throws TraceParseError on a strict-mode parse failure or a
     * header the reader refuses (in either mode), and FatalError when
     * the file cannot be opened; a lenient-mode degraded ingest
     * succeeds with lease.report->ok() == false.
     */
    Lease acquire(const std::string &path, trace::ParseMode mode);

    /**
     * Re-measure @p lease's Session after a request that may have
     * grown it, charge the growth to the budget, and evict LRU
     * entries (never this one) while the total exceeds it. No-op
     * when the entry is no longer resident.
     */
    void recharge(const Lease &lease);

    /** Drop the entry for @p path (both modes), if resident. */
    void invalidate(const std::string &path);

    SessionCacheStats stats() const;

  private:
    struct Slot;

    /** Cold openSession + strict-mode rejection. Throws. */
    static void fill(Slot &slot, const std::string &path,
                     trace::ParseMode mode);

    /** Unlink @p slot from the LRU accounting (mutex_ held). */
    void dropLocked(const std::string &key, Slot &slot,
                    std::uint64_t &counter);

    /** Evict LRU Ready slots until the budget fits (mutex_ held). */
    void enforceBudgetLocked(const Slot *keep);

    SessionCacheOptions options_;

    mutable std::mutex mutex_;
    std::map<std::string, std::shared_ptr<Slot>> slots_;
    std::uint64_t residentBytes_ = 0;
    /** Monotonic LRU clock; bumped on every hit. */
    std::uint64_t clock_ = 0;
    SessionCacheStats counters_;
};

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_SESSION_CACHE_HH

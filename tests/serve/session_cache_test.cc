/**
 * @file
 * The resident-Session LRU cache behind `deskpar serve`
 * (analysis/session_cache.hh).
 *
 * Contracts under test (see the header's contract list): one ingest
 * under racing acquires, identity invalidation when the file changes
 * underneath an entry, byte-budget LRU eviction that never pulls a
 * Session out from under a live lease, and no caching of failures.
 * The racing tests also run under the TSan CI leg.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <sstream>
#include <string>
#include <thread>
#include <vector>

#include "analysis/index_cache.hh"
#include "analysis/service.hh"
#include "analysis/session_cache.hh"
#include "trace/etl.hh"

namespace {

using namespace deskpar;
using namespace deskpar::analysis;

/**
 * Deterministic eight-CPU bundle (pids 1000..1005 named app-0..5);
 * @p salt perturbs the start time so a rewrite changes the header
 * bytes the identity hash covers.
 */
trace::TraceBundle
cacheBundle(std::uint64_t salt = 0, unsigned events = 4000)
{
    trace::TraceBundle bundle;
    bundle.startTime = 1000 + salt;
    bundle.stopTime =
        std::max<sim::SimTime>(2000000, 2000 + 400 * events) + salt;
    bundle.numLogicalCpus = 8;
    bundle.processNames[0] = "Idle";
    for (trace::Pid pid = 1000; pid < 1006; ++pid)
        bundle.processNames[pid] =
            "app-" + std::to_string(pid - 1000);

    std::uint64_t state = 42 + salt;
    auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (unsigned i = 0; i < events; ++i) {
        trace::CSwitchEvent cs;
        cs.timestamp = 1000 + salt + 400 * i + next() % 100;
        cs.cpu = static_cast<unsigned>(next() % 8);
        cs.oldPid = i % 2 ? 1000 + trace::Pid(next() % 6) : 0;
        cs.oldTid = cs.oldPid * 10 + 1;
        cs.newPid = i % 2 ? 0 : 1000 + trace::Pid(next() % 6);
        cs.newTid = cs.newPid * 10 + 1;
        cs.readyTime = cs.timestamp - next() % 900;
        bundle.cswitches.push_back(cs);
    }
    return bundle;
}

/** Write the bundle as .etl under TempDir; returns its path. */
std::string
writeTrace(const std::string &name, std::uint64_t salt = 0,
           unsigned events = 4000)
{
    std::string path = ::testing::TempDir() + "/" + name;
    trace::writeEtl(cacheBundle(salt, events), path);
    std::filesystem::remove(indexCachePath(path));
    return path;
}

TEST(SessionCache, WarmHitReturnsTheSameSession)
{
    std::string path = writeTrace("sc_warm.etl");
    SessionCache cache;

    SessionCache::Lease cold =
        cache.acquire(path, trace::ParseMode::Strict);
    EXPECT_FALSE(cold.warm);
    ASSERT_TRUE(cold.session);
    ASSERT_TRUE(cold.report);
    EXPECT_TRUE(cold.report->ok());

    SessionCache::Lease warm =
        cache.acquire(path, trace::ParseMode::Strict);
    EXPECT_TRUE(warm.warm);
    EXPECT_EQ(warm.session.get(), cold.session.get());

    SessionCacheStats stats = cache.stats();
    EXPECT_EQ(stats.misses, 1u);
    EXPECT_EQ(stats.hits, 1u);
    EXPECT_EQ(stats.ingests, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_GT(stats.residentBytes, 0u);
}

TEST(SessionCache, EvictsLeastRecentlyUsedUnderBytePressure)
{
    std::string a = writeTrace("sc_lru_a.etl");
    std::string b = writeTrace("sc_lru_b.etl", 1);

    // A one-byte budget: every entry is over budget (admitted anyway,
    // per contract) and becomes the eviction victim when the next
    // trace arrives.
    SessionCacheOptions options;
    options.maxBytes = 1;
    SessionCache cache(options);

    cache.acquire(a, trace::ParseMode::Strict);
    cache.acquire(b, trace::ParseMode::Strict);

    SessionCacheStats stats = cache.stats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 1u);

    // A was evicted, so reopening it is a fresh ingest.
    SessionCache::Lease again =
        cache.acquire(a, trace::ParseMode::Strict);
    EXPECT_FALSE(again.warm);
    EXPECT_EQ(cache.stats().ingests, 3u);
}

/**
 * Columns a query batch builds stay resident, so the entry's charge
 * must grow with them: the Service re-charges the entry after the
 * request, and when the growth pushes the cache over its budget the
 * least recently used other entry is evicted.
 */
TEST(SessionCache, QueryBatchGrowthIsChargedAndEvicts)
{
    std::string a = writeTrace("sc_grow_a.etl");
    std::string b = writeTrace("sc_grow_b.etl", 1);

    // Frames over the whole trace read what the ingest pre-warmed;
    // the query batch sweeps new filters (per thread, a cpu mask)
    // and a new family (bursts) of the pre-warmed one.
    auto frames = [](Service &service, const std::string &path) {
        ServiceFramesRequest request;
        request.trace.path = path;
        service.frames(request);
    };
    ServiceQueryRequest query;
    query.trace.path = a;
    query.specs = {"tlp/app=app-/by=thread", "dhist",
                   "csrate/cpus=0-3"};

    std::uint64_t before = 0;
    std::uint64_t after = 0;
    {
        Service probe;
        frames(probe, a);
        frames(probe, b);
        before = probe.cacheStats().residentBytes;
        probe.query(query);
        after = probe.cacheStats().residentBytes;
        probe.query(query); // resident columns: no further growth
        EXPECT_EQ(probe.cacheStats().residentBytes, after);
    }
    EXPECT_GT(after, before);

    // Both fresh entries fit; a's grown state does not fit beside b.
    Service::Options options;
    options.cache.maxBytes = before + (after - before) / 2;
    Service service(options);
    frames(service, a);
    frames(service, b);
    EXPECT_EQ(service.cacheStats().entries, 2u);
    EXPECT_EQ(service.cacheStats().residentBytes, before);

    service.query(query);
    SessionCacheStats stats = service.cacheStats();
    EXPECT_EQ(stats.evictions, 1u);
    EXPECT_EQ(stats.entries, 1u);
    EXPECT_LE(stats.residentBytes, options.cache.maxBytes);

    // b was the victim; a (just used) stayed resident.
    frames(service, a);
    EXPECT_EQ(service.cacheStats().ingests, 2u);
    frames(service, b);
    EXPECT_EQ(service.cacheStats().ingests, 3u);
}

TEST(SessionCache, LiveLeaseSurvivesEviction)
{
    std::string a = writeTrace("sc_lease_a.etl");
    std::string b = writeTrace("sc_lease_b.etl", 1);

    SessionCacheOptions options;
    options.maxBytes = 1;
    SessionCache cache(options);

    SessionCache::Lease lease =
        cache.acquire(a, trace::ParseMode::Strict);
    cache.acquire(b, trace::ParseMode::Strict); // evicts a's entry
    EXPECT_EQ(cache.stats().evictions, 1u);

    // The evicted Session is still pinned by the lease and must keep
    // answering queries.
    trace::PidSet pids = lease.session->pids("app-");
    EXPECT_FALSE(pids.empty());
    auto result = lease.session->concurrency(pids);
    EXPECT_EQ(result.numCpus, 8u);
}

TEST(SessionCache, RacingAcquiresPerformOneIngest)
{
    std::string path = writeTrace("sc_race.etl");
    SessionCache cache;

    constexpr unsigned kThreads = 8;
    std::vector<SessionCache::Lease> leases(kThreads);
    std::atomic<unsigned> ready{0};
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kThreads; ++i) {
        threads.emplace_back([&, i] {
            // Spin-sync so the acquires overlap instead of serializing
            // on thread startup.
            ready.fetch_add(1);
            while (ready.load() < kThreads) {
            }
            leases[i] = cache.acquire(path, trace::ParseMode::Strict);
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (unsigned i = 0; i < kThreads; ++i) {
        ASSERT_TRUE(leases[i].session) << i;
        EXPECT_EQ(leases[i].session.get(), leases[0].session.get());
    }
    SessionCacheStats stats = cache.stats();
    EXPECT_EQ(stats.ingests, 1u);
    EXPECT_EQ(stats.hits + stats.misses, kThreads);
    EXPECT_EQ(stats.entries, 1u);
}

TEST(SessionCache, RewrittenFileIsReingested)
{
    std::string path = writeTrace("sc_stale.etl");
    SessionCache cache;

    SessionCache::Lease before =
        cache.acquire(path, trace::ParseMode::Strict);

    // Rewrite the trace in place with different header bytes; mtime
    // alone is too coarse to rely on, the identity hash is not.
    trace::writeEtl(cacheBundle(7), path);

    SessionCache::Lease after =
        cache.acquire(path, trace::ParseMode::Strict);
    EXPECT_FALSE(after.warm);
    EXPECT_NE(after.session.get(), before.session.get());

    SessionCacheStats stats = cache.stats();
    EXPECT_EQ(stats.invalidations, 1u);
    EXPECT_EQ(stats.ingests, 2u);
    EXPECT_EQ(stats.entries, 1u);
}

/** The whole of file @p path. */
std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in), {}};
}

// A rewrite that keeps the size, the mtime and the first 64 KiB and
// changes only the last context switch (its CPU) is still a changed
// trace: the identity hashes the file's tail too.
TEST(SessionCache, InPlaceTailRewriteIsReingested)
{
    constexpr unsigned kEvents = 20000;
    std::string path = writeTrace("sc_tail.etl", 0, kEvents);
    SessionCache cache;
    SessionCache::Lease before =
        cache.acquire(path, trace::ParseMode::Strict);

    trace::TraceBundle bundle = cacheBundle(0, kEvents);
    trace::CSwitchEvent &last = bundle.cswitches.back();
    last.cpu = (last.cpu + 1) % bundle.numLogicalCpus;
    std::ostringstream image;
    trace::writeEtl(bundle, image);
    const std::string old = slurp(path);
    const std::string now = image.str();
    ASSERT_EQ(now.size(), old.size());
    ASSERT_GT(old.size(), std::size_t(128) << 10);
    ASSERT_EQ(now.compare(0, std::size_t(64) << 10, old, 0,
                          std::size_t(64) << 10),
              0);
    ASSERT_NE(now, old);
    auto stamp = std::filesystem::last_write_time(path);
    {
        std::fstream out(path,
                         std::ios::binary | std::ios::in | std::ios::out);
        out.write(now.data(), static_cast<std::streamsize>(now.size()));
    }
    std::filesystem::last_write_time(path, stamp);

    SessionCache::Lease after =
        cache.acquire(path, trace::ParseMode::Strict);
    EXPECT_FALSE(after.warm);
    EXPECT_NE(after.session.get(), before.session.get());
    EXPECT_EQ(after.session->bundle().cswitches.back().cpu, last.cpu);
    EXPECT_EQ(cache.stats().invalidations, 1u);
    EXPECT_EQ(cache.stats().ingests, 2u);
}

TEST(SessionCache, ExplicitInvalidateForcesReingest)
{
    std::string path = writeTrace("sc_inval.etl");
    SessionCache cache;

    cache.acquire(path, trace::ParseMode::Strict);
    cache.invalidate(path);
    EXPECT_EQ(cache.stats().entries, 0u);

    SessionCache::Lease lease =
        cache.acquire(path, trace::ParseMode::Strict);
    EXPECT_FALSE(lease.warm);
    EXPECT_EQ(cache.stats().ingests, 2u);
}

TEST(SessionCache, FailedIngestIsNotCachedAndRetries)
{
    std::string path = ::testing::TempDir() + "/sc_bad.etl";
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "this is not a trace file";
    }
    std::filesystem::remove(indexCachePath(path));

    SessionCache cache;
    EXPECT_THROW(cache.acquire(path, trace::ParseMode::Strict),
                 std::exception);
    EXPECT_EQ(cache.stats().entries, 0u);

    // Racing waiters on a failing ingest must all see the throw, and
    // none may cache the failure.
    constexpr unsigned kThreads = 4;
    std::atomic<unsigned> threw{0};
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kThreads; ++i) {
        threads.emplace_back([&] {
            try {
                cache.acquire(path, trace::ParseMode::Strict);
            } catch (const std::exception &) {
                threw.fetch_add(1);
            }
        });
    }
    for (std::thread &t : threads)
        t.join();
    EXPECT_EQ(threw.load(), kThreads);
    EXPECT_EQ(cache.stats().entries, 0u);

    // Fix the file; the next acquire succeeds from scratch.
    trace::writeEtl(cacheBundle(), path);
    SessionCache::Lease lease =
        cache.acquire(path, trace::ParseMode::Strict);
    EXPECT_TRUE(lease.report->ok());
    EXPECT_EQ(cache.stats().entries, 1u);
}

TEST(SessionCache, RefusedHeaderFailsInBothModes)
{
    // A lenient ingest publishes what it salvaged, but a header the
    // reader refuses leaves nothing: both modes raise the header
    // error, which the CLI and the served ops report by name.
    std::string path = ::testing::TempDir() + "/sc_refused.etl";
    {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        out << "this is not a trace file";
    }
    SessionCache cache;
    for (trace::ParseMode mode :
         {trace::ParseMode::Strict, trace::ParseMode::Lenient}) {
        try {
            cache.acquire(path, mode);
            ADD_FAILURE() << "expected TraceParseError";
        } catch (const trace::TraceParseError &e) {
            EXPECT_EQ(e.error().section, "header");
            EXPECT_EQ(e.error().reason, "bad magic");
        }
        EXPECT_EQ(cache.stats().entries, 0u);
    }

    // Damage past a good header still salvages in lenient mode.
    std::string bytes;
    {
        std::ostringstream out;
        trace::writeEtl(cacheBundle(), out);
        bytes = out.str();
    }
    bytes.pop_back(); // the End tag
    std::ofstream(path, std::ios::binary | std::ios::trunc) << bytes;
    SessionCache::Lease lease =
        cache.acquire(path, trace::ParseMode::Lenient);
    EXPECT_FALSE(lease.report->ok());
    EXPECT_GT(lease.session->bundle().cswitches.size(), 0u);
}

TEST(SessionCache, MissingFileThrows)
{
    SessionCache cache;
    EXPECT_THROW(cache.acquire(::testing::TempDir() +
                                   "/sc_nonexistent.etl",
                               trace::ParseMode::Strict),
                 std::exception);
}

} // namespace

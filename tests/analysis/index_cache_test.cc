/**
 * @file
 * Spill-to-disk TraceIndex cache (analysis/index_cache.hh).
 *
 * Contract under test: a cold openSession writes `<trace>.dpidx`; a
 * warm reopen restores a Session whose every cached analyzer output
 * is bit-identical to the cold one without re-reading the cswitch
 * stream; any identity drift (size, mtime, header bytes), checksum
 * mismatch, or truncation falls back to a cold open; and the queries
 * the restored columns cannot answer fail loudly instead of silently
 * recomputing against the emptied stream.
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <chrono>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "analysis/index_cache.hh"
#include "analysis/session.hh"
#include "sim/cpu.hh"
#include "sim/gpu.hh"
#include "sim/logging.hh"
#include "trace/container.hh"
#include "trace/etl.hh"
#include "trace/etlc.hh"

namespace {

using namespace deskpar;
using namespace deskpar::analysis;

/** @p events context switches, 400 ns apart; the default fits 2 ms. */
trace::TraceBundle
cacheBundle(unsigned events = 4000)
{
    trace::TraceBundle bundle;
    bundle.startTime = 1000;
    bundle.stopTime = std::max<sim::SimTime>(2000000, 2000 + 400 * events);
    bundle.numLogicalCpus = 8;
    bundle.processNames[0] = "Idle";
    for (trace::Pid pid = 1000; pid < 1006; ++pid)
        bundle.processNames[pid] =
            "app-" + std::to_string(pid - 1000);

    std::uint64_t state = 42;
    auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (unsigned i = 0; i < events; ++i) {
        trace::CSwitchEvent cs;
        cs.timestamp = 1000 + 400 * i + next() % 100;
        cs.cpu = static_cast<unsigned>(next() % 8);
        cs.oldPid = i % 2 ? 1000 + trace::Pid(next() % 6) : 0;
        cs.oldTid = cs.oldPid * 10 + 1;
        cs.newPid = i % 2 ? 0 : 1000 + trace::Pid(next() % 6);
        cs.newTid = cs.newPid * 10 + 1;
        cs.readyTime = cs.timestamp - next() % 900;
        bundle.cswitches.push_back(cs);
    }
    for (unsigned i = 0; i < 200; ++i) {
        trace::GpuPacketEvent gp;
        gp.start = 2000 + 800 * i;
        gp.queued = gp.start - 50;
        gp.finish = gp.start + 300;
        gp.pid = 1000 + trace::Pid(i % 6);
        gp.engine = static_cast<trace::GpuEngineId>(
            i % trace::kNumGpuEngines);
        gp.packetId = i;
        gp.queueSlot = 0;
        bundle.gpuPackets.push_back(gp);
    }
    for (unsigned i = 0; i < 60; ++i) {
        trace::FrameEvent fr;
        fr.timestamp = 5000 + 16000 * i;
        fr.pid = 1000;
        fr.frameId = i;
        fr.synthesized = false;
        bundle.frames.push_back(fr);
    }
    trace::MarkerEvent mk;
    mk.timestamp = 8000;
    mk.label = "input: click";
    bundle.markers.push_back(mk);
    return bundle;
}

/** Write the corpus trace as .etl under TempDir; returns its path. */
std::string
writeTrace(const std::string &name, unsigned events = 4000)
{
    std::string path = ::testing::TempDir() + "/" + name;
    trace::writeEtl(cacheBundle(events), path);
    std::filesystem::remove(indexCachePath(path));
    return path;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream out;
    out << in.rdbuf();
    return out.str();
}

void
expectSameAnalysis(const Session &a, const Session &b,
                   const trace::PidSet &pids)
{
    auto ca = a.concurrency(pids);
    auto cb = b.concurrency(pids);
    EXPECT_EQ(ca.c, cb.c);
    EXPECT_EQ(ca.numCpus, cb.numCpus);
    EXPECT_EQ(ca.window, cb.window);
    EXPECT_EQ(ca.outOfRangeCpuEvents, cb.outOfRangeCpuEvents);

    auto ga = a.gpuUtil(pids);
    auto gb = b.gpuUtil(pids);
    EXPECT_EQ(ga.aggregateRatio, gb.aggregateRatio);
    EXPECT_EQ(ga.busyRatio, gb.busyRatio);
    EXPECT_EQ(ga.perEngine, gb.perEngine);
    EXPECT_EQ(ga.packetCount, gb.packetCount);

    auto fa = a.frameStats(pids);
    auto fb = b.frameStats(pids);
    EXPECT_EQ(fa.frames, fb.frames);
    EXPECT_EQ(fa.synthesizedFrames, fb.synthesizedFrames);
    EXPECT_EQ(fa.avgFps, fb.avgFps);
    EXPECT_EQ(fa.fpsStddev, fb.fpsStddev);
    EXPECT_EQ(fa.onePercentLowFps, fb.onePercentLowFps);

    auto ra = a.responsiveness(pids);
    auto rb = b.responsiveness(pids);
    EXPECT_EQ(ra.inputs, rb.inputs);
    EXPECT_EQ(ra.answered, rb.answered);
    EXPECT_EQ(ra.latency.count(), rb.latency.count());
    EXPECT_EQ(ra.latency.mean(), rb.latency.mean());
    EXPECT_EQ(ra.latency.max(), rb.latency.max());

    sim::CpuSpec cpu;
    sim::GpuSpec gpu;
    auto pa = a.power(cpu, gpu);
    auto pb = b.power(cpu, gpu);
    EXPECT_EQ(pa.cpuWatts, pb.cpuWatts);
    EXPECT_EQ(pa.gpuWatts, pb.gpuWatts);
    EXPECT_EQ(pa.seconds, pb.seconds);
}

TEST(IndexCache, ColdOpenWritesTheCacheAndWarmReopenRestoresIt)
{
    std::string path = writeTrace("cache_roundtrip.etl");

    OpenResult cold = openSession(path);
    ASSERT_TRUE(cold.session);
    EXPECT_TRUE(cold.report.ok()) << cold.report.summary();
    EXPECT_FALSE(cold.warm);
    EXPECT_TRUE(cold.wroteCache);
    EXPECT_TRUE(std::filesystem::exists(cold.cachePath));

    OpenResult warm = openSession(path);
    ASSERT_TRUE(warm.session);
    EXPECT_TRUE(warm.warm);
    EXPECT_FALSE(warm.wroteCache);
    EXPECT_TRUE(warm.session->index().restored());

    expectSameAnalysis(*cold.session, *warm.session,
                       trace::PidSet{});
}

TEST(IndexCache, PrefixSetsAreCoveredWhenWarmedAndStaleWhenNot)
{
    std::string path = writeTrace("cache_prefixes.etl");
    OpenOptions options;
    options.prefixes = {"app-0"};

    OpenResult cold = openSession(path, options);
    ASSERT_TRUE(cold.session);
    EXPECT_FALSE(cold.warm);

    OpenResult warm = openSession(path, options);
    ASSERT_TRUE(warm.session);
    EXPECT_TRUE(warm.warm);
    expectSameAnalysis(*cold.session, *warm.session,
                       cold.session->pids("app-0"));

    // A pid set the cache never saw is not silently recomputed: the
    // open falls back to a cold ingest that can serve it.
    OpenOptions wider;
    wider.prefixes = {"app-0", "app-3"};
    OpenResult uncovered = openSession(path, wider);
    ASSERT_TRUE(uncovered.session);
    EXPECT_FALSE(uncovered.warm);
    EXPECT_TRUE(uncovered.wroteCache);

    // ... after which the wider cache answers both prefixes warm.
    OpenResult rewarmed = openSession(path, wider);
    EXPECT_TRUE(rewarmed.warm);
}

TEST(IndexCache, RestoredSessionsRefuseRawStreamQueries)
{
    std::string path = writeTrace("cache_refusal.etl");
    openSession(path);
    OpenResult warm = openSession(path);
    ASSERT_TRUE(warm.warm);

    // plan()/query()/bottlenecks() need the raw cswitch stream the
    // cache deliberately dropped.
    std::vector<Query> queries;
    queries.push_back(parseQuerySpec("tlp"));
    EXPECT_THROW(warm.session->plan(queries), FatalError);
    EXPECT_THROW(warm.session->bottlenecks(trace::PidSet{}),
                 FatalError);

    // So does a pid set that was never warmed into the cache.
    trace::PidSet unseen = warm.session->pids("app-4");
    ASSERT_FALSE(unseen.empty());
    EXPECT_THROW(warm.session->concurrency(unseen), FatalError);
}

TEST(IndexCache, CacheBytesAreDeterministic)
{
    std::string path = writeTrace("cache_deterministic.etl");
    OpenResult cold = openSession(path);
    ASSERT_TRUE(cold.wroteCache);
    std::string first = slurp(cold.cachePath);
    ASSERT_FALSE(first.empty());

    std::filesystem::remove(cold.cachePath);
    std::string error;
    ASSERT_TRUE(saveIndexCache(*cold.session, path, error)) << error;
    EXPECT_EQ(slurp(cold.cachePath), first);
}

TEST(IndexCache, ChangedTraceFileInvalidatesTheCache)
{
    std::string path = writeTrace("cache_stale.etl");
    openSession(path);

    // Same bytes, newer mtime: the identity check must refuse it (a
    // rewritten file may coincidentally keep its size).
    auto stamp = std::filesystem::last_write_time(path);
    std::filesystem::last_write_time(
        path, stamp + std::chrono::seconds(3));

    std::string error;
    EXPECT_EQ(loadCachedSession(path, error), nullptr);
    EXPECT_NE(error.find("stale"), std::string::npos);

    OpenResult reopened = openSession(path);
    ASSERT_TRUE(reopened.session);
    EXPECT_FALSE(reopened.warm);
    EXPECT_TRUE(reopened.wroteCache);
    EXPECT_TRUE(openSession(path).warm);
}

/**
 * Rewrite @p path in place with the same trace but its last context
 * switch on another CPU: the same size, the same first 64 KiB, the
 * mtime restored. Only the bytes near the end differ.
 */
void
rewriteTailInPlace(const std::string &path, unsigned events)
{
    trace::TraceBundle bundle = cacheBundle(events);
    trace::CSwitchEvent &last = bundle.cswitches.back();
    last.cpu = (last.cpu + 1) % bundle.numLogicalCpus;
    std::ostringstream image;
    trace::writeEtl(bundle, image);
    const std::string before = slurp(path);
    const std::string after = image.str();
    ASSERT_EQ(after.size(), before.size());
    ASSERT_GT(before.size(), std::size_t(128) << 10);
    ASSERT_EQ(after.compare(0, std::size_t(64) << 10, before, 0,
                            std::size_t(64) << 10),
              0);
    ASSERT_NE(after, before);
    auto stamp = std::filesystem::last_write_time(path);
    {
        std::fstream out(path, std::ios::binary | std::ios::in |
                                   std::ios::out);
        out.write(after.data(),
                  static_cast<std::streamsize>(after.size()));
    }
    std::filesystem::last_write_time(path, stamp);
}

TEST(IndexCache, InPlaceTailRewriteInvalidatesTheCache)
{
    constexpr unsigned kEvents = 20000;
    std::string path = writeTrace("cache_tail.etl", kEvents);
    ASSERT_TRUE(openSession(path).wroteCache);
    ASSERT_NO_FATAL_FAILURE(rewriteTailInPlace(path, kEvents));

    std::string error;
    EXPECT_EQ(loadCachedSession(path, error), nullptr);
    EXPECT_NE(error.find("stale"), std::string::npos) << error;
    OpenResult reopened = openSession(path);
    ASSERT_TRUE(reopened.session);
    EXPECT_FALSE(reopened.warm);
    EXPECT_TRUE(reopened.wroteCache);
}

/** FNV-1a 64 of the first 64 KiB: the identity hash caches once held. */
std::uint64_t
headerOnlyHash(const std::string &path)
{
    std::string head = slurp(path).substr(0, std::size_t(64) << 10);
    std::uint64_t h = 0xcbf29ce484222325ull;
    for (char c : head) {
        h ^= static_cast<std::uint8_t>(c);
        h *= 0x100000001b3ull;
    }
    return h;
}

/** Skip one LEB128 varint of @p bytes at @p pos. */
std::size_t
skipVarint(const std::string &bytes, std::size_t pos)
{
    while (static_cast<unsigned char>(bytes[pos]) & 0x80)
        ++pos;
    return pos + 1;
}

/** @p cache's magic, then @p body under a CRC made to match. */
std::string
resealCache(const std::string &cache, const std::string &body)
{
    std::uint32_t crc = trace::crc32c(body);
    std::string out = cache.substr(0, 8);
    for (int i = 0; i < 4; ++i)
        out.push_back(static_cast<char>((crc >> (8 * i)) & 0xff));
    return out + body;
}

TEST(IndexCache, CacheKeyedByTheHeaderOnlyHashIsRebuilt)
{
    std::string path = writeTrace("cache_old_key.etl");
    OpenResult cold = openSession(path);
    ASSERT_TRUE(cold.wroteCache);

    // The same cache with its identity hash (the fourth varint of
    // the body, after version, size and mtime) swapped for the
    // header-only hash, and its CRC made to match.
    std::string cache = slurp(cold.cachePath);
    std::string body = cache.substr(12);
    std::size_t pos = 0;
    for (int i = 0; i < 3; ++i)
        pos = skipVarint(body, pos);
    std::string oldKey;
    trace::putVarint(oldKey, headerOnlyHash(path));
    body.replace(pos, skipVarint(body, pos) - pos, oldKey);
    std::string rewritten = resealCache(cache, body);
    ASSERT_NE(rewritten, cache);
    {
        std::ofstream out(cold.cachePath, std::ios::binary);
        out << rewritten;
    }

    std::string error;
    EXPECT_EQ(loadCachedSession(path, error), nullptr);
    EXPECT_NE(error.find("stale"), std::string::npos) << error;
    OpenResult rebuilt = openSession(path);
    ASSERT_TRUE(rebuilt.session);
    EXPECT_FALSE(rebuilt.warm);
    EXPECT_TRUE(rebuilt.wroteCache);
    EXPECT_EQ(slurp(cold.cachePath), cache);
    EXPECT_TRUE(openSession(path).warm);
}

TEST(IndexCache, CorruptOrTruncatedCachesFallBackToCold)
{
    std::string path = writeTrace("cache_corrupt.etl");
    OpenResult cold = openSession(path);
    std::string good = slurp(cold.cachePath);
    ASSERT_GT(good.size(), 64u);

    // One flipped payload byte: the CRC must catch it.
    std::string flipped = good;
    flipped[good.size() / 2] ^= '\x20';
    {
        std::ofstream out(cold.cachePath, std::ios::binary);
        out << flipped;
    }
    std::string error;
    EXPECT_EQ(loadCachedSession(path, error), nullptr);
    EXPECT_NE(error.find("checksum mismatch"), std::string::npos);

    // Truncation inside the header.
    {
        std::ofstream out(cold.cachePath, std::ios::binary);
        out << good.substr(0, 10);
    }
    error.clear();
    EXPECT_EQ(loadCachedSession(path, error), nullptr);
    EXPECT_FALSE(error.empty());

    // openSession shrugs and re-ingests (then repairs the cache).
    OpenResult reopened = openSession(path);
    ASSERT_TRUE(reopened.session);
    EXPECT_FALSE(reopened.warm);
    EXPECT_TRUE(reopened.wroteCache);
    EXPECT_EQ(slurp(cold.cachePath), good);
}

TEST(IndexCache, EtlcTracesWarmTheSameWay)
{
    std::string path = ::testing::TempDir() + "/cache_packed.etlc";
    trace::writeEtlc(cacheBundle(), path);
    std::filesystem::remove(indexCachePath(path));

    OpenResult cold = openSession(path);
    ASSERT_TRUE(cold.session);
    EXPECT_TRUE(cold.report.ok()) << cold.report.summary();
    EXPECT_FALSE(cold.warm);
    EXPECT_TRUE(cold.wroteCache);

    OpenResult warm = openSession(path);
    ASSERT_TRUE(warm.warm);
    expectSameAnalysis(*cold.session, *warm.session,
                       trace::PidSet{});
}

TEST(IndexCache, UseCacheFalseAlwaysIngests)
{
    std::string path = writeTrace("cache_opt_out.etl");
    openSession(path);
    OpenOptions options;
    options.useCache = false;
    options.refreshCache = false;
    OpenResult result = openSession(path, options);
    ASSERT_TRUE(result.session);
    EXPECT_FALSE(result.warm);
    EXPECT_FALSE(result.wroteCache);
}

TEST(IndexCache, ProbeFailsCleanlyOnAMissingFile)
{
    TraceIdentity id;
    std::string error;
    EXPECT_FALSE(probeTraceIdentity(
        ::testing::TempDir() + "/no_such_trace.etl", id, error));
    EXPECT_FALSE(error.empty());
}

TEST(IndexCache, AdoptColumnsRefusesABuiltIndex)
{
    trace::TraceBundle bundle = cacheBundle();
    Session session(std::move(bundle));
    std::string columns =
        session.index().serializeColumns();
    ASSERT_FALSE(columns.empty());

    TraceIndex &index =
        const_cast<TraceIndex &>(session.index());
    std::string error;
    EXPECT_THROW(index.adoptColumns(columns, &error), FatalError);
}

TEST(IndexCache, AdoptColumnsRefusesAnotherCpuCount)
{
    // Restored timelines answer queries with the header's CPU count,
    // so a blob built at another count must not be adopted.
    trace::TraceBundle bundle = cacheBundle();
    Session session(bundle);
    session.index().warm({});
    std::string columns = session.index().serializeColumns();
    ASSERT_FALSE(columns.empty());

    TraceIndex same(bundle);
    std::string error;
    EXPECT_TRUE(same.adoptColumns(columns, &error)) << error;

    bundle.numLogicalCpus = 4;
    TraceIndex other(bundle);
    EXPECT_FALSE(other.adoptColumns(columns, &error));
    EXPECT_NE(error.find("CPU count"), std::string::npos) << error;
}

/** A timeline's level column as serializeColumns() writes it. */
std::string
encodedLevels(const std::vector<int> &levels)
{
    std::string out;
    trace::putVarint(out, levels.size());
    for (int level : levels) // zigzag
        trace::putVarint(out, (static_cast<std::uint64_t>(level) << 1) ^
                                  static_cast<std::uint64_t>(level >> 31));
    return out;
}

/** Where the only copy of @p needle sits in @p hay. */
std::size_t
findOnce(const std::string &hay, const std::string &needle)
{
    std::size_t at = hay.find(needle);
    EXPECT_NE(at, std::string::npos);
    EXPECT_EQ(hay.find(needle, at + 1), std::string::npos);
    return at;
}

TEST(IndexCache, AdoptColumnsRefusesAMisshapedTimeline)
{
    // Queries index their level buffers and checkpoint rows with the
    // adopted columns, so a blob whose levels leave [0, CPU count] or
    // whose column sizes disagree must not be adopted.
    trace::TraceBundle bundle = cacheBundle();
    Session session(bundle);
    session.index().warm({});
    const std::string columns = session.index().serializeColumns();
    const detail::ConcurrencyTimeline &tl =
        session.index().filterColumns(detail::TimelineSpec{}, 0).timeline;
    ASSERT_GT(tl.levels.size(), 100u);
    ASSERT_EQ(tl.cutoff, 8u);

    const std::string levels = encodedLevels(tl.levels);
    const std::size_t at = findOnce(columns, levels);
    const std::size_t mid = at + levels.size() - tl.levels.size() / 2;
    auto expectRefused = [&](const std::string &blob, const char *why) {
        TraceIndex index(bundle);
        std::string error;
        EXPECT_FALSE(index.adoptColumns(blob, &error)) << why;
        EXPECT_NE(error.find(why), std::string::npos) << error;
    };

    std::string below = columns;
    below[mid] = 1; // zigzag -1
    expectRefused(below, "level outside");
    std::string above = columns;
    above[mid] = 18; // zigzag 9, one past the 8 CPUs
    expectRefused(above, "level outside");

    std::vector<int> shorter(tl.levels.begin(), tl.levels.end() - 1);
    std::string fewerLevels = columns;
    fewerLevels.replace(at, levels.size(), encodedLevels(shorter));
    expectRefused(fewerLevels, "level column size");

    std::string cum;
    trace::putVarint(cum, tl.cum.size());
    for (sim::SimDuration d : tl.cum)
        trace::putVarint(cum, d);
    std::string fewerRows;
    trace::putVarint(fewerRows, tl.cum.size() - 1);
    for (std::size_t i = 0; i + 1 < tl.cum.size(); ++i)
        trace::putVarint(fewerRows, tl.cum[i]);
    std::string shortCum = columns;
    shortCum.replace(findOnce(columns, cum), cum.size(), fewerRows);
    expectRefused(shortCum, "checkpoint column size");

    TraceIndex intact(bundle);
    std::string error;
    EXPECT_TRUE(intact.adoptColumns(columns, &error)) << error;
}

TEST(IndexCache, CachedLevelOutsideTheCpuCountFallsBackToCold)
{
    // A .dpidx whose one level was patched and whose CRC was made to
    // match again: the load refuses it and the open re-ingests.
    std::string path = writeTrace("cache_bad_level.etl");
    OpenResult cold = openSession(path);
    ASSERT_TRUE(cold.wroteCache);
    const detail::ConcurrencyTimeline &tl =
        cold.session->index()
            .filterColumns(detail::TimelineSpec{}, 0)
            .timeline;
    ASSERT_GT(tl.levels.size(), 100u);

    const std::string cache = slurp(cold.cachePath);
    std::string body = cache.substr(12);
    const std::string levels = encodedLevels(tl.levels);
    body[findOnce(body, levels) + levels.size() - 1] = 18; // level 9
    {
        std::ofstream out(cold.cachePath, std::ios::binary);
        out << resealCache(cache, body);
    }

    std::string error;
    EXPECT_EQ(loadCachedSession(path, error), nullptr);
    EXPECT_NE(error.find("level outside"), std::string::npos) << error;
    OpenResult rebuilt = openSession(path);
    ASSERT_TRUE(rebuilt.session);
    EXPECT_FALSE(rebuilt.warm);
    EXPECT_TRUE(rebuilt.wroteCache);
    EXPECT_EQ(slurp(cold.cachePath), cache);
    expectSameAnalysis(*cold.session, *rebuilt.session, {});
}

} // namespace

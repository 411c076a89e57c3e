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
#include "trace/etl.hh"
#include "trace/etlc.hh"

namespace {

using namespace deskpar;
using namespace deskpar::analysis;

trace::TraceBundle
cacheBundle()
{
    trace::TraceBundle bundle;
    bundle.startTime = 1000;
    bundle.stopTime = 2000000;
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
    for (unsigned i = 0; i < 4000; ++i) {
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
writeTrace(const std::string &name)
{
    std::string path = ::testing::TempDir() + "/" + name;
    trace::writeEtl(cacheBundle(), path);
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

} // namespace

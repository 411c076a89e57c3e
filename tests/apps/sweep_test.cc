/**
 * @file
 * Sweep engine determinism and resume-robustness tests.
 *
 * Pins the engine's contract: the same sweep seed yields
 * byte-identical scenario configs and merged metric rows at any
 * worker-thread count and across resume boundaries, and a corrupt or
 * lying checkpoint costs exactly the missing shards — completed
 * shard files are the ground truth, revalidated by content. The
 * checkpoint mutants come from trace::FaultInjector's
 * TraceFormat::Checkpoint rotation (satellite of the corrupt-trace
 * corpus machinery).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <filesystem>
#include <fstream>
#include <set>
#include <sstream>
#include <string>
#include <vector>

#include "apps/sweep.hh"
#include "sim/callback.hh"
#include "support/corrupt.hh"

namespace {

namespace fs = std::filesystem;

using deskpar::apps::ScenarioConfig;
using deskpar::apps::SweepOptions;
using deskpar::apps::SweepReport;
using deskpar::trace::FaultInjector;
using deskpar::trace::TraceFormat;

std::string
slurp(const fs::path &path)
{
    std::ifstream in(path, std::ios::binary);
    EXPECT_TRUE(in) << path;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

void
spit(const fs::path &path, const std::string &bytes)
{
    std::ofstream out(path, std::ios::binary | std::ios::trunc);
    out.write(bytes.data(),
              static_cast<std::streamsize>(bytes.size()));
}

/** Small sweep that still spans several shards. */
SweepOptions
smallSweep(const std::string &dir)
{
    SweepOptions options;
    options.seed = 77;
    options.count = 24;
    options.shardSize = 4;
    options.seconds = 0.05;
    options.threads = 2;
    options.outDir = dir;
    return options;
}

fs::path
freshDir(const std::string &name)
{
    fs::path dir = fs::path(::testing::TempDir()) / name;
    fs::remove_all(dir);
    return dir;
}

TEST(Sweep, ScenarioAtIsPureAndCoversTheAxes)
{
    std::set<unsigned> cores;
    std::set<std::string> policies;
    std::set<bool> smt;
    for (std::uint32_t i = 0; i < 128; ++i) {
        ScenarioConfig config = deskpar::apps::scenarioAt(2026, i);
        EXPECT_EQ(config.index, i);
        EXPECT_TRUE(config == deskpar::apps::scenarioAt(2026, i));
        cores.insert(config.cores);
        policies.insert(config.policy);
        smt.insert(config.smt);
        EXPECT_FALSE(config.app.empty());
        EXPECT_GT(config.quantum, 0);
    }
    EXPECT_EQ(cores, (std::set<unsigned>{4, 8, 16, 32}));
    EXPECT_EQ(policies.size(), 4u);
    EXPECT_EQ(smt.size(), 2u);
    // Different seeds decorrelate: same index, different stream.
    EXPECT_FALSE(deskpar::apps::scenarioAt(1, 5) ==
                 deskpar::apps::scenarioAt(2, 5));
}

/**
 * The zero-steady-state-malloc guard of DESIGN.md section 16: a full
 * scenario simulation must never push a callback past
 * InlineCallback's inline buffer into the heap fallback. The counter
 * is process-wide, so a regression anywhere in the simulator's
 * scheduled captures fails here.
 */
TEST(Sweep, ScenarioRunKeepsEventCallbacksInline)
{
    std::uint64_t before =
        deskpar::sim::InlineCallback::heapFallbacks();
    ScenarioConfig config = deskpar::apps::scenarioAt(7, 3);
    deskpar::apps::ScenarioMetrics metrics =
        deskpar::apps::runScenario(config, 0.1);
    EXPECT_GT(metrics.traceEvents, 0u);
    EXPECT_EQ(deskpar::sim::InlineCallback::heapFallbacks(), before);
}

TEST(Sweep, MergedRowsAreByteIdenticalAcrossThreadCounts)
{
    std::string reference;
    for (unsigned threads : {1u, 2u, 7u}) {
        fs::path dir = freshDir("sweep_threads_" +
                                std::to_string(threads));
        SweepOptions options = smallSweep(dir.string());
        options.threads = threads;
        SweepReport report = deskpar::apps::runSweep(options);
        EXPECT_TRUE(report.complete);
        EXPECT_EQ(report.scenariosRun, options.count);
        std::string merged = slurp(dir / "sweep.jsonl");
        if (threads == 1)
            reference = merged;
        else
            EXPECT_EQ(merged, reference)
                << "threads=" << threads
                << " diverged from the serial sweep";
        fs::remove_all(dir);
    }
    EXPECT_FALSE(reference.empty());
}

TEST(Sweep, KillAndResumeIsByteIdentical)
{
    fs::path refDir = freshDir("sweep_resume_ref");
    SweepOptions reference = smallSweep(refDir.string());
    ASSERT_TRUE(deskpar::apps::runSweep(reference).complete);
    std::string referenceRows = slurp(refDir / "sweep.jsonl");

    // First pass dies after two shards; no merged output yet.
    fs::path dir = freshDir("sweep_resume");
    SweepOptions options = smallSweep(dir.string());
    options.stopAfterShards = 2;
    SweepReport first = deskpar::apps::runSweep(options);
    EXPECT_FALSE(first.complete);
    EXPECT_TRUE(first.mergedPath.empty());
    EXPECT_FALSE(fs::exists(dir / "sweep.jsonl"));

    // Resume finishes only what is missing.
    options.stopAfterShards = 0;
    options.resume = true;
    SweepReport second = deskpar::apps::runSweep(options);
    EXPECT_TRUE(second.complete);
    EXPECT_GE(second.shardsReused, 2u);
    EXPECT_EQ(second.scenariosRun +
                  second.shardsReused * options.shardSize,
              options.count);
    EXPECT_EQ(slurp(dir / "sweep.jsonl"), referenceRows);
    fs::remove_all(refDir);
    fs::remove_all(dir);
}

TEST(Sweep, CheckpointRoundTripsAndRejectsOtherIdentities)
{
    SweepOptions options = smallSweep("unused");
    std::vector<bool> completed = {true, false, true,
                                   false, false, true};
    std::string bytes =
        deskpar::apps::encodeCheckpoint(options, completed);

    std::vector<bool> decoded;
    ASSERT_TRUE(
        deskpar::apps::decodeCheckpoint(bytes, options, decoded));
    EXPECT_EQ(decoded, completed);

    SweepOptions otherSeed = options;
    otherSeed.seed += 1;
    EXPECT_FALSE(
        deskpar::apps::decodeCheckpoint(bytes, otherSeed, decoded));
    EXPECT_TRUE(decoded.empty());

    SweepOptions otherCount = options;
    otherCount.count += 4;
    EXPECT_FALSE(
        deskpar::apps::decodeCheckpoint(bytes, otherCount, decoded));

    SweepOptions otherDuration = options;
    otherDuration.seconds *= 2;
    EXPECT_FALSE(deskpar::apps::decodeCheckpoint(
        bytes, otherDuration, decoded));

    EXPECT_FALSE(deskpar::apps::decodeCheckpoint(
        bytes.substr(0, bytes.size() / 2), options, decoded));
}

/**
 * The satellite contract of the checkpoint mutation family: for
 * every mutant — unreadable magic, bad CRC, a bitmap that lies both
 * ways, a well-formed checkpoint of another sweep — resume re-runs
 * exactly the shards whose files are missing, reuses every valid
 * shard file, and converges to the byte-identical merged output.
 */
TEST(Sweep, CorruptCheckpointsRestartOnlyMissingShards)
{
    fs::path refDir = freshDir("sweep_corrupt_ref");
    SweepOptions reference = smallSweep(refDir.string());
    ASSERT_TRUE(deskpar::apps::runSweep(reference).complete);
    std::string referenceRows = slurp(refDir / "sweep.jsonl");
    std::string checkpoint =
        slurp(refDir / deskpar::apps::checkpointFileName());

    // Every shard file of the finished reference run, by name.
    std::uint32_t shards =
        (reference.count + reference.shardSize - 1) /
        reference.shardSize;
    ASSERT_EQ(shards, 6u);
    std::vector<std::string> shardBytes;
    for (std::uint32_t s = 0; s < shards; ++s)
        shardBytes.push_back(
            slurp(refDir / deskpar::apps::shardFileName(s)));

    FaultInjector injector(checkpoint, 0xc0ffee,
                           TraceFormat::Checkpoint);
    fs::path dir = freshDir("sweep_corrupt");
    for (std::size_t mutantIndex = 0; mutantIndex < 20;
         ++mutantIndex) {
        SCOPED_TRACE("mutant " + std::to_string(mutantIndex) +
                     ": " +
                     injector.mutationFor(mutantIndex).describe());

        // Stage a partial run: shards 1 and 4 lost, shard 3
        // truncated mid-line, and the checkpoint replaced by the
        // mutant (which may claim any progress pattern at all).
        fs::remove_all(dir);
        fs::create_directories(dir);
        for (std::uint32_t s = 0; s < shards; ++s) {
            if (s == 1 || s == 4)
                continue;
            std::string bytes = shardBytes[s];
            if (s == 3)
                bytes.resize(bytes.size() / 2);
            spit(dir / deskpar::apps::shardFileName(s), bytes);
        }
        spit(dir / deskpar::apps::checkpointFileName(),
             injector.mutant(mutantIndex));

        SweepOptions options = smallSweep(dir.string());
        options.resume = true;
        SweepReport report = deskpar::apps::runSweep(options);
        EXPECT_TRUE(report.complete);
        EXPECT_EQ(report.shardsReused, shards - 3);
        EXPECT_EQ(report.scenariosRun, 3 * options.shardSize);
        EXPECT_EQ(slurp(dir / "sweep.jsonl"), referenceRows);
    }
    fs::remove_all(refDir);
    fs::remove_all(dir);
}

} // namespace

/**
 * @file
 * Tests for the parallel SuiteRunner: bit-identical results against
 * the serial harness path, thread-count resolution via DESKPAR_JOBS,
 * and cancellation/exception propagation through the pool.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <cstdlib>
#include <string>
#include <vector>

#include "apps/registry.hh"
#include "apps/runner.hh"
#include "sim/logging.hh"

namespace {

using namespace deskpar;
using namespace deskpar::apps;

RunOptions
shortOptions()
{
    RunOptions options;
    options.iterations = 2;
    options.duration = sim::sec(2.0);
    options.seedBase = 42;
    return options;
}

// The acceptance contract: N worker threads produce byte-identical
// AppMetrics (TLP, c-vector, GPU util, fps) to the serial
// runWorkload loop for the same seeds.
TEST(SuiteRunner, BitIdenticalToSerialPath)
{
    // One single-process app, one multi-process app, one transcoder
    // (fps/gpuWork paths).
    const std::vector<std::string> ids = {"excel", "chrome",
                                         "handbrake"};
    RunOptions options = shortOptions();

    std::vector<SuiteJob> jobs;
    for (const auto &id : ids)
        jobs.push_back(suiteJob(id, options));

    SuiteRunner runner(3);
    EXPECT_EQ(runner.threads(), 3u);
    std::vector<AppRunResult> parallel = runner.run(jobs);
    ASSERT_EQ(parallel.size(), ids.size());

    for (std::size_t i = 0; i < ids.size(); ++i) {
        AppRunResult serial = runWorkload(ids[i], options);
        const AppRunResult &par = parallel[i];

        EXPECT_EQ(serial.agg.app, par.agg.app);
        // Bitwise equality, not near-equality: the fold order is the
        // contract.
        EXPECT_EQ(serial.tlp(), par.tlp());
        EXPECT_EQ(serial.agg.tlp.stddev(), par.agg.tlp.stddev());
        EXPECT_EQ(serial.gpuUtil(), par.gpuUtil());
        EXPECT_EQ(serial.agg.maxConcurrency.mean(),
                  par.agg.maxConcurrency.mean());
        EXPECT_EQ(serial.agg.meanC, par.agg.meanC);
        EXPECT_EQ(serial.fps.mean(), par.fps.mean());
        EXPECT_EQ(serial.realFps.mean(), par.realFps.mean());

        ASSERT_EQ(serial.iterations.size(), par.iterations.size());
        for (std::size_t it = 0; it < serial.iterations.size();
             ++it) {
            const auto &s = serial.iterations[it];
            const auto &p = par.iterations[it];
            EXPECT_EQ(s.metrics.concurrency.c,
                      p.metrics.concurrency.c);
            EXPECT_EQ(s.metrics.gpu.busyRatio, p.metrics.gpu.busyRatio);
            EXPECT_EQ(s.metrics.frames.frames, p.metrics.frames.frames);
            EXPECT_EQ(s.gpuWork, p.gpuWork);
        }

        EXPECT_EQ(serial.lastPids, par.lastPids);
        EXPECT_EQ(serial.lastBundle.totalEvents(),
                  par.lastBundle.totalEvents());
    }
}

TEST(SuiteRunner, SingleThreadMatchesMultiThread)
{
    std::vector<SuiteJob> jobs = {suiteJob("vlc", shortOptions()),
                                  suiteJob("word", shortOptions())};
    std::vector<AppRunResult> one = SuiteRunner(1).run(jobs);
    std::vector<AppRunResult> four = SuiteRunner(4).run(jobs);
    ASSERT_EQ(one.size(), four.size());
    for (std::size_t i = 0; i < one.size(); ++i) {
        EXPECT_EQ(one[i].tlp(), four[i].tlp());
        EXPECT_EQ(one[i].gpuUtil(), four[i].gpuUtil());
        EXPECT_EQ(one[i].fps.mean(), four[i].fps.mean());
    }
}

TEST(SuiteRunner, DefaultThreadsHonorsEnvOverride)
{
    ::setenv("DESKPAR_JOBS", "2", 1);
    EXPECT_EQ(SuiteRunner::defaultThreads(), 2u);
    EXPECT_EQ(SuiteRunner().threads(), 2u);
    ::setenv("DESKPAR_JOBS", "not-a-number", 1);
    EXPECT_GE(SuiteRunner::defaultThreads(), 1u);
    ::unsetenv("DESKPAR_JOBS");
    EXPECT_GE(SuiteRunner::defaultThreads(), 1u);
}

SuiteJob
throwingJob(std::atomic<int> &built)
{
    SuiteJob job;
    job.label = "boom";
    job.factory = [&built]() -> WorkloadPtr {
        ++built;
        fatal("factory exploded");
    };
    job.options = shortOptions();
    job.options.iterations = 1;
    return job;
}

TEST(SuiteRunner, SerialPathCancelsRemainingTasksOnException)
{
    std::atomic<int> built{0};
    std::vector<SuiteJob> jobs;
    for (int i = 0; i < 4; ++i)
        jobs.push_back(throwingJob(built));
    EXPECT_THROW(SuiteRunner(1).run(jobs), FatalError);
    // The first task throws; the other three are cancelled unstarted.
    EXPECT_EQ(built.load(), 1);
}

TEST(SuiteRunner, PoolPropagatesFirstExceptionAndAborts)
{
    std::atomic<int> built{0};
    std::vector<SuiteJob> jobs;
    for (int i = 0; i < 8; ++i)
        jobs.push_back(throwingJob(built));
    EXPECT_THROW(SuiteRunner(4).run(jobs), FatalError);
    // Every executed task throws and trips the abort flag, so each of
    // the 4 workers runs at most one task before stopping.
    EXPECT_GE(built.load(), 1);
    EXPECT_LE(built.load(), 4);
}

TEST(SuiteRunner, NullFactoryIsFatal)
{
    std::vector<SuiteJob> jobs(1);
    jobs[0].label = "empty";
    jobs[0].options = shortOptions();
    EXPECT_THROW(SuiteRunner(2).run(jobs), FatalError);
}

TEST(SuiteRunner, ZeroIterationsIsFatal)
{
    std::vector<SuiteJob> jobs = {suiteJob("excel", shortOptions())};
    jobs[0].options.iterations = 0;
    EXPECT_THROW(SuiteRunner(2).run(jobs), FatalError);
}

TEST(SuiteRunner, EmptyJobListYieldsEmptyResults)
{
    EXPECT_TRUE(SuiteRunner(2).run({}).empty());
}

TEST(SuiteRunner, MoreThreadsThanTasksWorks)
{
    RunOptions options = shortOptions();
    options.iterations = 1;
    std::vector<SuiteJob> jobs = {suiteJob("word", options)};
    std::vector<AppRunResult> results = SuiteRunner(8).run(jobs);
    ASSERT_EQ(results.size(), 1u);
    EXPECT_EQ(results[0].iterations.size(), 1u);
    EXPECT_GT(results[0].tlp(), 0.0);
}

// ---------------------------------------------------------------------
// Recoverable batches: one bad job degrades the batch, never kills it.
// ---------------------------------------------------------------------

TEST(SuiteRunner, RecoverableBatchCompletesSiblingsOfAFailedJob)
{
    std::atomic<int> built{0};
    std::vector<SuiteJob> jobs = {suiteJob("excel", shortOptions()),
                                  throwingJob(built),
                                  suiteJob("word", shortOptions())};
    SuiteOutcome outcome = SuiteRunner(3).runRecoverable(jobs);

    EXPECT_FALSE(outcome.ok());
    ASSERT_EQ(outcome.failures.size(), 1u);
    EXPECT_EQ(outcome.failures[0].job, 1u);
    EXPECT_EQ(outcome.failures[0].label, "boom");
    EXPECT_NE(outcome.failures[0].reason.find(
                  "factory exploded"),
              std::string::npos);
    EXPECT_TRUE(outcome.failed(1));
    EXPECT_FALSE(outcome.failed(0));
    EXPECT_FALSE(outcome.failed(2));

    // The healthy jobs really ran.
    ASSERT_EQ(outcome.results.size(), 3u);
    EXPECT_GT(outcome.results[0].tlp(), 0.0);
    EXPECT_GT(outcome.results[2].tlp(), 0.0);
    EXPECT_EQ(outcome.results[1].agg.app, "boom");

    // ...and the failure's diagnostic names the job.
    EXPECT_EQ(outcome.failures[0].diagnostic().detail.source, "boom");
}

TEST(SuiteRunner, RecoverableBatchMatchesRunWhenAllJobsAreClean)
{
    std::vector<SuiteJob> jobs = {suiteJob("vlc", shortOptions()),
                                  suiteJob("word", shortOptions())};
    std::vector<AppRunResult> plain = SuiteRunner(2).run(jobs);
    SuiteOutcome outcome = SuiteRunner(2).runRecoverable(jobs);
    EXPECT_TRUE(outcome.ok());
    ASSERT_EQ(outcome.results.size(), plain.size());
    for (std::size_t i = 0; i < plain.size(); ++i) {
        EXPECT_EQ(outcome.results[i].tlp(), plain[i].tlp());
        EXPECT_EQ(outcome.results[i].gpuUtil(), plain[i].gpuUtil());
    }
}

TEST(SuiteRunner, RecoverableBatchSkipsLaterIterationsOfAFailedJob)
{
    std::atomic<int> built{0};
    SuiteJob bad = throwingJob(built);
    bad.options.iterations = 4;
    SuiteOutcome outcome = SuiteRunner(1).runRecoverable({bad});
    EXPECT_EQ(outcome.failures.size(), 1u);
    // Iterations 1..3 are cancelled once iteration 0 fails the job.
    EXPECT_EQ(built.load(), 1);
}

} // namespace

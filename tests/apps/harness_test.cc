/**
 * @file
 * Tests for the experiment harness: iteration aggregation, seeds,
 * determinism, and option handling.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <cstring>

#include "apps/harness.hh"
#include "obs/obs.hh"
#include "sim/logging.hh"

namespace {

using namespace deskpar;
using namespace deskpar::apps;

TEST(Harness, RunsRequestedIterations)
{
    RunOptions options;
    options.iterations = 3;
    options.duration = sim::sec(3.0);
    AppRunResult result = runWorkload("excel", options);
    EXPECT_EQ(result.iterations.size(), 3u);
    EXPECT_EQ(result.agg.tlp.count(), 3u);
    EXPECT_EQ(result.fps.count(), 3u);
}

TEST(Harness, DeterministicForSameSeed)
{
    RunOptions options;
    options.iterations = 1;
    options.duration = sim::sec(3.0);
    options.seedBase = 123;
    AppRunResult a = runWorkload("vlc", options);
    AppRunResult b = runWorkload("vlc", options);
    EXPECT_DOUBLE_EQ(a.tlp(), b.tlp());
    EXPECT_DOUBLE_EQ(a.gpuUtil(), b.gpuUtil());
    EXPECT_EQ(a.lastBundle.totalEvents(),
              b.lastBundle.totalEvents());
}

TEST(Harness, DifferentSeedsDiffer)
{
    RunOptions a_opts;
    a_opts.iterations = 1;
    a_opts.duration = sim::sec(3.0);
    a_opts.seedBase = 1;
    RunOptions b_opts = a_opts;
    b_opts.seedBase = 2;
    AppRunResult a = runWorkload("photoshop", a_opts);
    AppRunResult b = runWorkload("photoshop", b_opts);
    EXPECT_NE(a.tlp(), b.tlp());
}

TEST(Harness, IterationsVaryWithinARun)
{
    RunOptions options;
    options.iterations = 3;
    options.duration = sim::sec(3.0);
    AppRunResult result = runWorkload("photoshop", options);
    // Sigma strictly positive: seeds differ per iteration.
    EXPECT_GT(result.agg.tlp.stddev(), 0.0);
}

TEST(Harness, LastBundleAndPidsPopulated)
{
    RunOptions options;
    options.iterations = 2;
    options.duration = sim::sec(2.0);
    AppRunResult result = runWorkload("chrome", options);
    EXPECT_GT(result.lastBundle.cswitches.size(), 0u);
    EXPECT_GT(result.lastPids.size(), 1u); // multi-process
    EXPECT_EQ(result.lastBundle.stopTime, sim::sec(2.0));
}

TEST(Harness, ZeroIterationsFatal)
{
    RunOptions options;
    options.iterations = 0;
    EXPECT_THROW(runWorkload("excel", options), FatalError);
}

TEST(Harness, DurationOverridesModelDefault)
{
    RunOptions options;
    options.iterations = 1;
    options.duration = sim::sec(1.5);
    AppRunResult result = runWorkload("word", options);
    EXPECT_EQ(result.lastBundle.duration(), sim::sec(1.5));
}

#if !defined(DESKPAR_OBS_DISABLED)

/**
 * runIteration publishes the event queue's and the scheduler's
 * counts once per iteration; the totals sum over iterations.
 */
TEST(Harness, PublishesSimulatorCounters)
{
    const bool wasEnabled = obs::enabled();
    obs::setEnabled(true);
    obs::reset();
    RunOptions options;
    options.iterations = 2;
    options.duration = sim::sec(1.0);
    AppRunResult result = runWorkload("handbrake", options);
    obs::setEnabled(wasEnabled);
    obs::Snapshot snapshot = obs::collect();

    auto total = [&](const char *name) -> std::int64_t {
        for (const obs::CounterTotal &counter : snapshot.counters) {
            if (!std::strcmp(counter.name, name))
                return counter.total;
        }
        return -1;
    };
    std::uint64_t cswitches = 0;
    for (const IterationResult &iteration : result.iterations)
        cswitches += iteration.sched.contextSwitches;
    EXPECT_GT(cswitches, 0u);
    EXPECT_EQ(total("sim.cswitches"),
              static_cast<std::int64_t>(cswitches));

    std::int64_t scheduled = total("sim.events.scheduled");
    std::int64_t fired = total("sim.events.fired");
    std::int64_t cancelled = total("sim.events.cancelled");
    EXPECT_GT(fired, 0);
    EXPECT_GE(cancelled, 0);
    // The remainder is what was still pending at each iteration end.
    EXPECT_GE(scheduled, fired + cancelled);
    // Every context switch moves the running CPUs' completions.
    EXPECT_GT(total("sim.events.rescheduled"), 0);
    EXPECT_GT(total("sim.events.peak_heap"), 0);
}

#endif // !DESKPAR_OBS_DISABLED

} // namespace

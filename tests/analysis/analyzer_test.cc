/**
 * @file
 * Tests for the high-level analyzer and iteration aggregation,
 * including an end-to-end machine -> trace -> metrics flow.
 */

#include <gtest/gtest.h>

#include "analysis/analyzer.hh"
#include "analysis/session.hh"
#include "sim/behaviors_basic.hh"
#include "sim/logging.hh"
#include "sim/machine.hh"

namespace {

using namespace deskpar;
using namespace deskpar::sim;
using analysis::AppMetrics;
using analysis::IterationAggregate;

TEST(Analyzer, EndToEndTwoParallelThreads)
{
    MachineConfig config = MachineConfig::paperDefault();
    config.seed = 5;
    Machine machine(config);
    machine.session().start(0);

    auto &app = machine.createProcess("app");
    // Two threads computing 100 ms each, in parallel, plus GPU work.
    for (int i = 0; i < 2; ++i) {
        app.createThread(
            makeSequence({Action::compute(workForMs(100.0, 4.7))}),
            "worker");
    }
    double gwork =
        machine.gpu().spec().workForMs(GpuEngineId::Graphics3D, 30.0);
    app.createThread(
        makeSequence({Action::gpuAsync(GpuEngineId::Graphics3D, gwork),
                      Action::gpuSync()}),
        "render");

    machine.run(sec(0.2));
    machine.session().stop(machine.now());

    AppMetrics metrics =
        analysis::Session(machine.session().bundle()).app("app");
    // Two compute threads dominate: TLP near 2.
    EXPECT_GT(metrics.tlp(), 1.8);
    EXPECT_LE(metrics.tlp(), 3.0);
    // 30 ms of GPU work in a 200 ms window: ~15%.
    EXPECT_NEAR(metrics.gpuUtilPercent(), 15.0, 2.0);
    EXPECT_EQ(metrics.concurrency.numCpus, 12u);
}

TEST(Analyzer, UnknownProcessFatal)
{
    MachineConfig config = MachineConfig::paperDefault();
    Machine machine(config);
    machine.session().start(0);
    machine.run(msec(1));
    machine.session().stop(machine.now());
    EXPECT_THROW(
        analysis::Session(machine.session().bundle()).app("ghost"),
        FatalError);
}

TEST(Analyzer, IterationAggregateMeansAndSigma)
{
    IterationAggregate agg;
    agg.app = "test";

    AppMetrics a;
    a.concurrency.numCpus = 4;
    a.concurrency.c = {0.5, 0.25, 0.25, 0.0, 0.0};
    a.gpu.aggregateRatio = 0.10;
    AppMetrics b;
    b.concurrency.numCpus = 4;
    b.concurrency.c = {0.5, 0.15, 0.35, 0.0, 0.0};
    b.gpu.aggregateRatio = 0.20;

    agg.add(a);
    agg.add(b);

    EXPECT_EQ(agg.tlp.count(), 2u);
    // a: (0.25 + 0.5)/0.5 = 1.5 ; b: (0.15 + 0.7)/0.5 = 1.7.
    EXPECT_NEAR(agg.tlp.mean(), 1.6, 1e-9);
    EXPECT_NEAR(agg.tlp.stddev(), 0.1, 1e-9);
    EXPECT_NEAR(agg.gpuUtil.mean(), 15.0, 1e-9);
    ASSERT_EQ(agg.meanC.size(), 5u);
    EXPECT_NEAR(agg.meanC[1], 0.2, 1e-12);
    EXPECT_NEAR(agg.meanC[2], 0.3, 1e-12);
    EXPECT_NEAR(agg.maxConcurrency.mean(), 2.0, 1e-12);
}

TEST(Analyzer, AggregateTracksGpuOverlapFlag)
{
    IterationAggregate agg;
    AppMetrics m;
    m.concurrency.numCpus = 2;
    m.concurrency.c = {1.0, 0.0, 0.0};
    m.gpu.aggregateRatio = 2.0;
    m.gpu.busyRatio = 1.0;
    m.gpu.overlapped = true;
    agg.add(m);
    EXPECT_TRUE(agg.gpuOverlapped);
}

} // namespace

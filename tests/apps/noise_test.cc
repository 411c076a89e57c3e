/**
 * @file
 * Tests for the background-noise workload and its harness hook.
 */

#include <gtest/gtest.h>

#include "analysis/analyzer.hh"
#include "analysis/session.hh"
#include "apps/harness.hh"
#include "apps/noise.hh"

namespace {

using namespace deskpar;
using namespace deskpar::apps;

TEST(Noise, SpawnsSystemProcesses)
{
    sim::MachineConfig config = sim::MachineConfig::paperDefault();
    config.seed = 9;
    sim::Machine machine(config);
    machine.session().start(0);
    spawnBackgroundNoise(machine);
    machine.run(sim::sec(2));
    machine.session().stop(machine.now());

    const auto &bundle = machine.session().bundle();
    EXPECT_FALSE(bundle.pidsByName("svchost").empty());
    EXPECT_FALSE(bundle.pidsByName("dwm").empty());
    EXPECT_FALSE(bundle.pidsByName("antivirus").empty());
    // Noise actually executes.
    EXPECT_GT(machine.scheduler().stats().busyTime, 0u);
    // The compositor uses a little GPU.
    EXPECT_GT(bundle.gpuPackets.size(), 0u);
}

TEST(Noise, IntensityScalesLoad)
{
    auto busy = [](double intensity) {
        sim::MachineConfig config =
            sim::MachineConfig::paperDefault();
        config.seed = 9;
        sim::Machine machine(config);
        machine.session().start(0);
        spawnBackgroundNoise(machine, intensity);
        machine.run(sim::sec(3));
        return machine.scheduler().stats().busyTime;
    };
    EXPECT_GT(busy(3.0), busy(1.0) * 2);
}

TEST(Noise, HarnessOptionLeavesAppMetricsClean)
{
    RunOptions quiet;
    quiet.iterations = 1;
    quiet.duration = sim::sec(6.0);
    RunOptions noisy = quiet;
    noisy.noiseIntensity = 2.0;

    AppRunResult clean = runWorkload("excel", quiet);
    AppRunResult dirty = runWorkload("excel", noisy);

    // Application-level TLP is insensitive to the noise.
    EXPECT_NEAR(clean.tlp(), dirty.tlp(), 0.15);

    // But the noise is visible system-wide.
    analysis::Session session(dirty.lastBundle);
    auto system = session.app(trace::PidSet{});
    auto app = session.app(dirty.lastPids);
    EXPECT_GT(system.gpuUtilPercent(), app.gpuUtilPercent());
    EXPECT_LT(system.concurrency.idleFraction(),
              app.concurrency.idleFraction());
}

} // namespace

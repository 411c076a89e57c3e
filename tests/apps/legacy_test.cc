/**
 * @file
 * Tests for the 2010 testbed replication: machine preset, model
 * calibration against the Figure 2/3 bars, and the Blake et al.
 * conclusions (2-3 cores suffice; GPU underutilized).
 */

#include <gtest/gtest.h>

#include "apps/harness.hh"
#include "apps/legacy.hh"

#include <ostream>

namespace deskpar::apps {

// Print a suite entry by its id. Without this, gtest prints the raw
// bytes of the struct, whose string and function pointers change from
// process to process, so the listed test names would not be stable.
void
PrintTo(const LegacyEntry &entry, std::ostream *os)
{
    *os << entry.id;
}

} // namespace deskpar::apps

namespace {

using namespace deskpar;
using namespace deskpar::apps;

RunOptions
options2010()
{
    RunOptions o;
    o.iterations = 1;
    o.duration = sim::sec(15.0);
    o.seedBase = 27;
    o.config = blake2010Config();
    return o;
}

TEST(Legacy, MachineMatchesBlakeTestbed)
{
    sim::MachineConfig config = blake2010Config();
    EXPECT_EQ(config.cpu.physicalCores, 8u);
    EXPECT_EQ(config.cpu.numLogicalCpus(), 16u);
    EXPECT_DOUBLE_EQ(config.cpu.baseClockGhz, 2.26);
    EXPECT_EQ(config.gpu.model, "NVIDIA GTX 285");
    EXPECT_FALSE(config.gpu.hasNvenc);
    EXPECT_EQ(config.activeCpus, 16u);
}

class LegacyApp
    : public ::testing::TestWithParam<apps::LegacyEntry>
{};

TEST_P(LegacyApp, MatchesTwentyTenOperatingPoint)
{
    const auto &entry = GetParam();
    auto model = entry.factory();
    AppRunResult result = runWorkload(*model, options2010());

    double tlp_tol = std::max(0.35, entry.tlp2010 * 0.25);
    EXPECT_NEAR(result.tlp(), entry.tlp2010, tlp_tol)
        << entry.id;
    double gpu_tol = std::max(1.5, entry.gpu2010 * 0.30);
    EXPECT_NEAR(result.gpuUtil(), entry.gpu2010, gpu_tol)
        << entry.id;
}

INSTANTIATE_TEST_SUITE_P(
    Suite, LegacyApp, ::testing::ValuesIn(legacySuite()),
    [](const ::testing::TestParamInfo<apps::LegacyEntry> &info) {
        std::string name = info.param.id;
        for (char &c : name) {
            if (c == '-')
                c = '_';
        }
        return name;
    });

TEST(Legacy, TwoToThreeCoresSufficeForInteractiveApps)
{
    // Blake's conclusion: beyond 2-3 cores, interactive 2010 apps
    // gain nothing.
    for (const char *id : {"photoshop-cs4", "firefox-35"}) {
        const LegacyEntry *entry = nullptr;
        for (const auto &e : legacySuite()) {
            if (e.id == id)
                entry = &e;
        }
        ASSERT_NE(entry, nullptr);

        auto tlpAt = [&](unsigned cores) {
            RunOptions o = options2010();
            o.config.smtEnabled = false;
            o.config.activeCpus = cores;
            auto model = entry->factory();
            return runWorkload(*model, o).tlp();
        };
        double at3 = tlpAt(3);
        double at8 = tlpAt(8);
        EXPECT_NEAR(at3, at8, 0.25) << id;
    }
}

TEST(Legacy, HandBrakeIsTheScalingException)
{
    const LegacyEntry *entry = nullptr;
    for (const auto &e : legacySuite()) {
        if (e.id == "handbrake-09")
            entry = &e;
    }
    ASSERT_NE(entry, nullptr);
    auto tlpAt = [&](unsigned cores) {
        RunOptions o = options2010();
        o.config.smtEnabled = false;
        o.config.activeCpus = cores;
        auto model = entry->factory();
        return runWorkload(*model, o).tlp();
    };
    EXPECT_GT(tlpAt(8), tlpAt(2) * 1.8);
}

TEST(Legacy, GpuMostlyUnderutilized)
{
    for (const auto &entry : legacySuite()) {
        auto model = entry.factory();
        AppRunResult result = runWorkload(*model, options2010());
        EXPECT_LT(result.gpuUtil(), 20.0) << entry.id;
    }
}

} // namespace

/**
 * @file
 * Scenario-fidelity integration tests: labeled action markers land
 * in the trace, and phase structure (the media players' 480p->1080p
 * clip switch) shows up in the timelines, as the paper's Section IV
 * testbenches prescribe.
 */

#include <gtest/gtest.h>

#include <set>

#include "analysis/session.hh"
#include "apps/harness.hh"

namespace {

using namespace deskpar;
using namespace deskpar::apps;

TEST(Scenario, ExcelActionsAppearAsMarkers)
{
    RunOptions options;
    options.iterations = 1;
    options.duration = sim::sec(10.0);
    AppRunResult result = runWorkload("excel", options);

    std::set<std::string> labels;
    for (const auto &marker : result.lastBundle.markers) {
        if (marker.label.rfind("input:", 0) == 0)
            labels.insert(marker.label);
    }
    // The Section IV-B script: sort, means, histogram...
    auto has = [&](const char *action) {
        for (const auto &label : labels) {
            if (label.find(action) != std::string::npos)
                return true;
        }
        return false;
    };
    EXPECT_TRUE(has("sort rows"));
    EXPECT_TRUE(has("compute means"));
    EXPECT_TRUE(has("plot histogram"));
}

TEST(Scenario, MediaPlayersStepUpAtClipSwitch)
{
    // 480p for the first 15 s, 1080p after: GPU utilization in the
    // second half is ~4x the first half, averaging to Table II.
    RunOptions options;
    options.iterations = 1;
    options.duration = sim::sec(30.0);
    AppRunResult result = runWorkload("vlc", options);

    analysis::Session session(result.lastBundle);
    auto first = session.gpuUtil(result.lastPids, 0, sim::sec(15.0));
    auto second =
        session.gpuUtil(result.lastPids, sim::sec(15.0), sim::sec(30.0));

    EXPECT_GT(second.utilizationPercent(),
              first.utilizationPercent() * 3.0);
    double avg = (first.utilizationPercent() +
                  second.utilizationPercent()) /
                 2.0;
    EXPECT_NEAR(avg, 15.7, 2.5);
}

TEST(Scenario, MediaFrameRateHeldAcrossClips)
{
    RunOptions options;
    options.iterations = 1;
    options.duration = sim::sec(30.0);
    AppRunResult result = runWorkload("quicktime", options);
    // 30 FPS playback throughout (the clip change is a content
    // change, not a rate change).
    EXPECT_NEAR(result.fps.mean(), 30.0, 1.0);
}

TEST(Scenario, VoiceAssistantMarkersCarryRequests)
{
    RunOptions options;
    options.iterations = 1;
    options.duration = sim::sec(30.0);
    AppRunResult result = runWorkload("cortana", options);
    bool weather = false;
    for (const auto &marker : result.lastBundle.markers)
        weather |= marker.label.find("weather") !=
                   std::string::npos;
    EXPECT_TRUE(weather);
}

} // namespace

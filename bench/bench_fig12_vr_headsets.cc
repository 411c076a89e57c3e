/**
 * @file
 * Figure 12: TLP and GPU utilization for the six VR games across
 * Oculus Rift, HTC Vive and HTC Vive Pro (6 SMT cores). Rift attains
 * the highest TLP; Vive and Vive Pro are nearly equal; GPU
 * utilization correlates with headset resolution (Vive Pro highest)
 * except for Fallout 4, whose internal resolution cap plus CPU-side
 * cost makes Vive Pro its *lowest*-utilization headset.
 */

#include <cstdio>
#include <iostream>

#include "apps/vr.hh"
#include "bench_util.hh"

using namespace deskpar;

int
main()
{
    bench::banner("Figure 12 - VR games across headsets",
                  "Section V-F, Figure 12");

    const apps::VrGame kGames[] = {
        apps::VrGame::ArizonaSunshine, apps::VrGame::Fallout4,
        apps::VrGame::RawData,         apps::VrGame::SeriousSamVr,
        apps::VrGame::SpacePirateTrainer,
        apps::VrGame::ProjectCars2};
    const apps::Headset kHeadsets[] = {apps::Headset::rift(),
                                       apps::Headset::vive(),
                                       apps::Headset::vivePro()};

    report::TextTable table({"Game", "Headset", "TLP",
                             "GPU util (%)", "Real FPS",
                             "Synth share (%)"});

    for (auto game : kGames) {
        for (const auto &headset : kHeadsets) {
            auto model = apps::makeVrGame(game, headset);
            apps::AppRunResult result =
                apps::runWorkload(*model, bench::paperRunOptions());
            const auto &frames =
                result.iterations.back().metrics.frames;
            table.row()
                .cell(apps::vrGameName(game))
                .cell(headset.name)
                .cell(result.tlp(), 2)
                .cell(result.gpuUtil(), 1)
                .cell(result.realFps.mean(), 1)
                .cell(frames.synthesizedShare() * 100.0, 1);
        }
    }
    table.print(std::cout);

    std::printf(
        "\nExpected shape: Rift achieves the highest TLP (its "
        "runtime threads do more in-process work); Vive and Vive "
        "Pro nearly equal;\nGPU utilization highest on Vive Pro for "
        "every game except Fallout 4, where it is lowest (internal "
        "resolution cap + CPU cost).\n");
    return 0;
}

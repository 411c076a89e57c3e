/**
 * @file
 * Figure 7: instantaneous TLP and GPU utilization over time for
 * Project CARS 2 on the Oculus Rift at 4/8/12 logical cores (SMT
 * on). At 4 cores ASW clamps the game to 45 FPS, which lowers both
 * TLP and GPU utilization; at 8-12 cores it holds 90 FPS with TLP
 * bursts between 2 and 6.
 */

#include "analysis/framerate.hh"
#include "bench_util.hh"

using namespace deskpar;

int
main()
{
    bench::banner(
        "Figure 7 - Project CARS 2 (Rift) TLP/GPU vs cores",
        "Section V-C-1, Figure 7");

    // Also report the ASW state via frame statistics per core count.
    for (unsigned cores : {4u, 8u, 12u}) {
        apps::RunOptions options = bench::paperRunOptions();
        options.iterations = 1;
        options.config.activeCpus = cores;
        apps::AppRunResult result =
            apps::runWorkload("projectcars2", options);
        const auto &frames = result.iterations[0].metrics.frames;
        std::printf("%2u cores: presented %.1f FPS (real %.1f, "
                    "synthesized share %.0f%%)\n",
                    cores, result.fps.mean(), result.realFps.mean(),
                    frames.synthesizedShare() * 100.0);
    }

    bench::runTimelineFigure("projectcars2", {4, 8, 12},
                             sim::msec(250));
    std::printf("\nExpected shape: at 4 logical cores ASW clamps to "
                "45 FPS (half the synthesized frames, reduced TLP "
                "and GPU); at 8-12 cores stable 90 FPS with TLP "
                "mostly between 2 and 6 and bursts higher.\n");
    return 0;
}

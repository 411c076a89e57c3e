/**
 * @file
 * Figure 13: instantaneous frame rate of Project CARS 2 on Oculus
 * Rift, HTC Vive and HTC Vive Pro with 6 SMT cores. The Rift holds
 * the steadiest rate; the Vive headsets dip toward 45 FPS whenever
 * the render misses its slot and reprojection fills in. (Counted on
 * real — non-synthesized — frames, which is what distinguishes a
 * reprojected stream from a rendered one.)
 */

#include <cstdio>
#include <iostream>

#include "analysis/session.hh"
#include "apps/vr.hh"
#include "bench_util.hh"

using namespace deskpar;

namespace {

analysis::TimeSeries
realFrameSeries(const trace::TraceBundle &bundle,
                const trace::PidSet &pids, sim::SimDuration window)
{
    // Drop synthesized frames, then reuse the standard series.
    trace::TraceBundle real = bundle;
    std::erase_if(real.frames, [&](const trace::FrameEvent &f) {
        return f.synthesized ||
               (!pids.empty() && pids.count(f.pid) == 0);
    });
    return analysis::Session(real).frameRateSeries(pids, window);
}

} // namespace

int
main()
{
    bench::banner("Figure 13 - Project CARS 2 frame pacing",
                  "Section V-F, Figure 13");

    const apps::Headset kHeadsets[] = {apps::Headset::rift(),
                                       apps::Headset::vive(),
                                       apps::Headset::vivePro()};

    for (unsigned cores : {12u, 4u}) {
        std::printf("--- %u logical cores (SMT on) ---\n", cores);
        report::Figure figure(
            "Instantaneous real-frame rate, Project CARS 2, " +
                std::to_string(cores) + " logical cores",
            "time (s)", "FPS");
        report::TextTable table({"Headset", "Avg FPS (presented)",
                                 "Avg FPS (real)", "FPS stddev",
                                 "1% low FPS"});

        for (const auto &headset : kHeadsets) {
            apps::RunOptions options = bench::paperRunOptions();
            options.iterations = 1;
            options.config.activeCpus = cores;
            auto model = apps::makeVrGame(
                apps::VrGame::ProjectCars2, headset);
            apps::AppRunResult result =
                apps::runWorkload(*model, options);

            auto series = realFrameSeries(result.lastBundle,
                                          result.lastPids,
                                          sim::msec(500));
            auto &s = figure.addSeries(headset.name);
            for (const auto &point : series.points)
                s.add(sim::toSeconds(point.t), point.value);

            const auto &frames =
                result.iterations.back().metrics.frames;
            table.row()
                .cell(headset.name)
                .cell(result.fps.mean(), 1)
                .cell(result.realFps.mean(), 1)
                .cell(frames.fpsStddev, 1)
                .cell(frames.onePercentLowFps, 1);
        }

        table.print(std::cout);
        std::printf("\n");
        figure.printAscii(std::cout, 72, 14);
        std::printf("\n");
    }
    std::printf(
        "Expected shape: at 6 SMT cores (12 logical) the Rift is the "
        "steadiest near 90 FPS with the Vive headsets dipping during "
        "heavy scenes;\nat 4 logical cores the Rift clamps to a "
        "stable 45 FPS (ASW) while Vive/Vive Pro oscillate between "
        "90 and 45 (asynchronous reprojection).\n");
    return 0;
}

/**
 * @file
 * Figure 9: GPU utilization of the GTX 680 and GTX 1080 Ti for
 * Premiere Pro video export with and without CUDA. Export with CUDA
 * shows higher utilization and lower TLP than without; runtime is
 * not significantly changed; the (weaker) GTX 680 runs at higher
 * utilization than the 1080 Ti.
 */

#include <cstdio>
#include <iostream>

#include "apps/video.hh"
#include "bench_util.hh"

using namespace deskpar;

int
main()
{
    bench::banner("Figure 9 - Premiere Pro export, CUDA vs software",
                  "Section V-D-1, Figure 9");

    struct GpuChoice
    {
        const char *label;
        sim::GpuSpec spec;
    };
    const GpuChoice kGpus[] = {
        {"GTX 680", sim::GpuSpec::gtx680()},
        {"GTX 1080 Ti", sim::GpuSpec::gtx1080Ti()},
    };

    report::TextTable table({"App", "GPU", "Renderer",
                             "Export rate (FPS)", "TLP",
                             "GPU util (%)"});

    for (const auto &gpu : kGpus) {
        for (bool cuda : {false, true}) {
            apps::RunOptions options = bench::paperRunOptions();
            options.config.gpu = gpu.spec;
            auto premiere = apps::makePremiere(
                cuda ? apps::PremiereScenario::ExportCuda
                     : apps::PremiereScenario::ExportSoftware);
            apps::AppRunResult result =
                apps::runWorkload(*premiere, options);
            table.row()
                .cell(std::string("Premiere Pro"))
                .cell(gpu.label)
                .cell(cuda ? "CUDA (Mercury)" : "software")
                .cell(result.fps.mean(), 1)
                .cell(result.tlp(), 1)
                .cell(result.gpuUtil(), 1);

            // Section IV-D: PowerDirector is also rendered with and
            // without CUDA support.
            auto pd = apps::makePowerDirectorExport(cuda);
            apps::AppRunResult pd_result =
                apps::runWorkload(*pd, options);
            table.row()
                .cell(std::string("PowerDirector"))
                .cell(gpu.label)
                .cell(cuda ? "CUDA" : "software")
                .cell(pd_result.fps.mean(), 1)
                .cell(pd_result.tlp(), 1)
                .cell(pd_result.gpuUtil(), 1);
        }
    }
    table.print(std::cout);

    std::printf("\nExpected shape: CUDA export shows much higher GPU "
                "utilization and somewhat lower TLP than software "
                "export; the GTX 680 runs at higher utilization "
                "than the 1080 Ti for the same export.\n");
    return 0;
}

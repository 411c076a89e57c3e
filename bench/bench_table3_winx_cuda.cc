/**
 * @file
 * Table III: transcode rate, TLP and GPU utilization of WinX with
 * and without NVIDIA CUDA/NVENC at 4/8/12 logical cores. Enabling
 * the GPU improves the transcode rate and lowers the TLP (paper:
 * rate 9/19/28 -> 14/27/37 FPS, TLP 4.0/7.9/11.5 -> 3.8/7.0/9.1,
 * GPU 0 -> 5.2/10.0/13.9%).
 */

#include <cstdio>
#include <iostream>

#include "apps/video.hh"
#include "bench_util.hh"

using namespace deskpar;

int
main()
{
    bench::banner("Table III - WinX with and without CUDA/NVENC",
                  "Section V-D-1, Table III");

    report::TextTable table({"Logical cores", "Rate no-GPU (FPS)",
                             "Rate GPU (FPS)", "TLP no-GPU",
                             "TLP GPU", "GPU util no-GPU (%)",
                             "GPU util GPU (%)"});

    double gain_sum = 0.0;
    double tlp_drop_max = 0.0;
    for (unsigned cores : {4u, 8u, 12u}) {
        apps::RunOptions options = bench::paperRunOptions();
        options.config.activeCpus = cores;

        auto cpuOnly = apps::makeWinX(false);
        auto withGpu = apps::makeWinX(true);
        apps::AppRunResult off = apps::runWorkload(*cpuOnly, options);
        apps::AppRunResult on = apps::runWorkload(*withGpu, options);

        table.row()
            .cell(std::uint64_t(cores))
            .cell(off.fps.mean(), 0)
            .cell(on.fps.mean(), 0)
            .cell(off.tlp(), 1)
            .cell(on.tlp(), 1)
            .cell(off.gpuUtil(), 1)
            .cell(on.gpuUtil(), 1);

        gain_sum += on.fps.mean() / off.fps.mean();
        tlp_drop_max = std::max(
            tlp_drop_max, (off.tlp() - on.tlp()) / off.tlp());
    }
    table.print(std::cout);

    std::printf("\nEnabling CUDA/NVENC: transcode rate x%.2f on "
                "average (paper ~x1.43); TLP decreases by up to "
                "%.0f%% (paper: up to 22%%);\nGPU utilization grows "
                "with TLP (more frames per second feed NVENC).\n",
                gain_sum / 3.0, tlp_drop_max * 100.0);
    return 0;
}

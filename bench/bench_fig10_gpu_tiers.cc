/**
 * @file
 * Figure 10: GPU utilization of the GTX 680 versus the GTX 1080 Ti
 * for the applications with substantial GPU use: Windows Media
 * Player, VLC, WinX, Bitcoin Miner, EasyMiner and Windows Ethereum
 * Miner. (VR is excluded — it requires a GPU above GTX 970 — and
 * PhoenixMiner does not support the GTX 680, as in the paper.)
 *
 * Also reports miner hash work: the GTX 680 completes >= 2x less
 * work despite running at full utilization, and Windows Ethereum
 * Miner shows *lower* utilization on Kepler (pre-crypto
 * architecture, unoptimized path).
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hh"

using namespace deskpar;

int
main()
{
    bench::banner("Figure 10 - GPU utilization: GTX 680 vs 1080 Ti",
                  "Section V-D-2, Figure 10");

    const std::vector<std::string> kApps = {
        "wmplayer", "vlc", "winx", "bitcoinminer", "easyminer",
        "wineth"};

    report::TextTable table({"Application", "GTX 680 util (%)",
                             "GTX 1080 Ti util (%)",
                             "680/1080 Ti work ratio"});

    // Both GPU tiers of every app run concurrently: jobs alternate
    // (app, GTX 680), (app, GTX 1080 Ti) in kApps order.
    std::vector<apps::SuiteJob> jobs;
    for (const auto &id : kApps) {
        apps::RunOptions mid = bench::paperRunOptions();
        mid.config.gpu = sim::GpuSpec::gtx680();
        apps::RunOptions high = bench::paperRunOptions();
        high.config.gpu = sim::GpuSpec::gtx1080Ti();
        jobs.push_back(apps::suiteJob(id, mid));
        jobs.back().label = id + "@gtx680";
        jobs.push_back(apps::suiteJob(id, high));
        jobs.back().label = id + "@gtx1080ti";
    }
    std::vector<apps::AppRunResult> results =
        bench::runSuiteParallel(jobs);

    std::size_t next = 0;
    for (std::size_t app = 0; app < kApps.size(); ++app) {
        const apps::AppRunResult &r680 = results[next++];
        const apps::AppRunResult &r1080 = results[next++];

        double work680 = r680.iterations.back().gpuWork;
        double work1080 = r1080.iterations.back().gpuWork;
        std::string ratio =
            work1080 > 0.0
                ? report::formatNumber(work680 / work1080, 2)
                : "-";

        table.row()
            .cell(r680.agg.app)
            .cell(r680.gpuUtil(), 1)
            .cell(r1080.gpuUtil(), 1)
            .cell(ratio);
    }
    table.print(std::cout);

    std::printf("\nExpected shape: media players and WinX run ~3-4x "
                "higher utilization on the GTX 680; Bitcoin miners "
                "saturate both GPUs\nbut complete >=2x less work on "
                "the 680 (work ratio <= 0.5); Windows Ethereum Miner "
                "is the exception with *lower* 680 utilization "
                "(Kepler-unoptimized kernel).\n");
    return 0;
}

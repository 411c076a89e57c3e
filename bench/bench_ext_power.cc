/**
 * @file
 * Extension experiment: the energy cost of the configurations the
 * paper sweeps. Section I frames everything in post-Dennard terms
 * (TDP walls, dark silicon, specialization for energy efficiency);
 * this bench quantifies it with the first-order power model:
 *
 *  - HandBrake energy per transcoded frame across core counts and
 *    SMT (more cores: more power but less time — energy/frame falls;
 *    SMT adds throughput at near-zero power cost);
 *  - WinX with and without NVENC (offload buys both speed and
 *    energy, the specialization argument);
 *  - mining: the GTX 680 burns comparable watts for ~4x less work.
 */

#include <cstdio>
#include <iostream>

#include "analysis/power.hh"
#include "analysis/session.hh"
#include "apps/video.hh"
#include "bench_util.hh"

using namespace deskpar;

namespace {

analysis::PowerEstimate
powerOf(const apps::AppRunResult &result,
        const apps::RunOptions &options)
{
    return analysis::Session(result.lastBundle)
        .power(options.config.cpu, options.config.gpu);
}

} // namespace

int
main()
{
    bench::banner("Extension - energy cost of the paper's sweeps",
                  "Section I framing (post-Dennard energy)");

    std::printf("HandBrake: energy per transcoded frame\n");
    report::TextTable hb({"Config", "FPS", "CPU W", "GPU W",
                          "J per frame"});
    struct Cfg
    {
        const char *label;
        unsigned cpus;
        bool smt;
    };
    for (const Cfg &cfg : {Cfg{"2 cores", 2, false},
                           Cfg{"4 cores", 4, false},
                           Cfg{"6 cores", 6, false},
                           Cfg{"6 cores + SMT", 12, true}}) {
        apps::RunOptions options = bench::paperRunOptions();
        options.iterations = 1;
        options.config.activeCpus = cfg.cpus;
        options.config.smtEnabled = cfg.smt;
        auto result = apps::runWorkload("handbrake", options);
        auto power = powerOf(result, options);
        hb.row()
            .cell(std::string(cfg.label))
            .cell(result.fps.mean(), 1)
            .cell(power.cpuWatts, 1)
            .cell(power.gpuWatts, 1)
            .cell(power.totalWatts() / result.fps.mean(), 2);
    }
    hb.print(std::cout);

    std::printf("\nWinX: does NVENC offload save energy?\n");
    report::TextTable winx(
        {"Renderer", "FPS", "Total W", "J per frame"});
    for (bool gpu : {false, true}) {
        apps::RunOptions options = bench::paperRunOptions();
        options.iterations = 1;
        auto model = apps::makeWinX(gpu);
        auto result = apps::runWorkload(*model, options);
        auto power = powerOf(result, options);
        winx.row()
            .cell(std::string(gpu ? "CUDA/NVENC" : "CPU only"))
            .cell(result.fps.mean(), 1)
            .cell(power.totalWatts(), 1)
            .cell(power.totalWatts() / result.fps.mean(), 2);
    }
    winx.print(std::cout);

    std::printf("\nMining: watts per unit of hash work "
                "(GTX 680 vs 1080 Ti)\n");
    report::TextTable mine({"GPU", "GPU W", "Relative work",
                            "Relative J per hash"});
    double base_work = 0.0;
    double base_energy = 0.0;
    for (const auto &gpu :
         {sim::GpuSpec::gtx1080Ti(), sim::GpuSpec::gtx680()}) {
        apps::RunOptions options = bench::paperRunOptions();
        options.iterations = 1;
        options.config.gpu = gpu;
        auto result = apps::runWorkload("bitcoinminer", options);
        auto power = powerOf(result, options);
        double work = result.iterations[0].gpuWork;
        double energy = power.energyJoules();
        if (base_work == 0.0) {
            base_work = work;
            base_energy = energy;
        }
        mine.row()
            .cell(gpu.model)
            .cell(power.gpuWatts, 1)
            .cell(work / base_work, 2)
            .cell((energy / work) / (base_energy / base_work), 2);
    }
    mine.print(std::cout);

    std::printf(
        "\nExpected shape: energy per frame falls with core count "
        "(race to idle) and SMT is nearly free throughput; NVENC\n"
        "cuts joules per frame; the GTX 680 pays several times the "
        "energy per hash — the efficiency gap behind the paper's\n"
        "ASIC-mining citation.\n");
    return 0;
}

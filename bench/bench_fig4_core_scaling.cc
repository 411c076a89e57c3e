/**
 * @file
 * Figure 4: TLP of the highest-TLP application in each category for
 * 4, 8 and 12 active logical cores (SMT on), against the ideal
 * linear line. EasyMiner tracks ideal; HandBrake and Photoshop scale
 * sub-linearly; Project CARS 2 saturates ~5; Chrome, VLC, Excel and
 * Cortana stay pinned near 2.
 */

#include <cstdio>
#include <iostream>
#include <vector>

#include "bench_util.hh"
#include "report/figure.hh"

using namespace deskpar;

int
main()
{
    bench::banner("Figure 4 - impact of core scaling on TLP",
                  "Section V-C-1, Figure 4");

    apps::RunOptions options = bench::paperRunOptions();

    const std::vector<std::string> kApps = {
        "easyminer", "handbrake", "photoshop", "projectcars2",
        "chrome",    "vlc",       "excel",     "cortana"};
    const std::vector<unsigned> kCores = {4, 8, 12};

    report::Figure figure("Figure 4: TLP vs active logical cores",
                          "logical cores", "TLP");
    auto &ideal = figure.addSeries("Ideal");
    for (unsigned cores : kCores)
        ideal.add(cores, cores);

    report::TextTable table(
        {"Application", "4 cores", "8 cores", "12 cores"});

    // The whole (app x core-count) sweep is one parallel batch.
    std::vector<apps::SuiteJob> jobs;
    for (const auto &id : kApps) {
        for (unsigned cores : kCores) {
            apps::RunOptions sweep = options;
            sweep.config.activeCpus = cores;
            jobs.push_back(apps::suiteJob(id, sweep));
            jobs.back().label =
                id + "@" + std::to_string(cores) + "c";
        }
    }
    std::vector<apps::AppRunResult> results =
        bench::runSuiteParallel(jobs);

    std::size_t next = 0;
    for (std::size_t app = 0; app < kApps.size(); ++app) {
        auto &series = figure.addSeries(results[next].agg.app);
        table.row().cell(results[next].agg.app);
        for (unsigned cores : kCores) {
            const apps::AppRunResult &result = results[next++];
            // Fused query path; see bench::fusedTlp.
            double tlp = bench::fusedTlp(result);
            series.add(cores, tlp);
            table.cell(tlp, 1);
        }
    }

    table.print(std::cout);
    std::printf("\n");
    figure.printAscii(std::cout, 60, 14);
    std::printf("\nExpected shape: EasyMiner ~linear with the ideal "
                "line; HandBrake/Photoshop sub-linear; Project CARS 2 "
                "saturating ~5;\nChrome/VLC/Excel/Cortana flat near "
                "2 (nothing more to exploit).\n");
    return 0;
}

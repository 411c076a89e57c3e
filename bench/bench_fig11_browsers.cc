/**
 * @file
 * Figure 11: TLP and GPU utilization for the web-browsing tests —
 * multiple tabs vs a single tab, and ESPN (active content) vs
 * Wikipedia (static content) — across Chrome, Firefox and Edge.
 * Also reports the process counts behind the paper's multi-process
 * discussion (Chrome spawns ~10x the processes of Firefox).
 */

#include <cstdio>
#include <iostream>

#include "apps/browser.hh"
#include "bench_util.hh"

using namespace deskpar;

int
main()
{
    bench::banner("Figure 11 - web browsing scenarios",
                  "Section V-E, Figure 11");

    const apps::BrowserEngine kEngines[] = {
        apps::BrowserEngine::Chrome, apps::BrowserEngine::Firefox,
        apps::BrowserEngine::Edge};
    const apps::BrowseScenario kScenarios[] = {
        apps::BrowseScenario::MultiTab,
        apps::BrowseScenario::SingleTab,
        apps::BrowseScenario::Espn, apps::BrowseScenario::Wiki};

    report::TextTable table({"Browser", "Scenario", "Processes",
                             "TLP", "GPU util (%)"});

    // Custom (non-registry) models fan out through per-job factories.
    std::vector<apps::SuiteJob> jobs;
    for (auto engine : kEngines) {
        for (auto scenario : kScenarios) {
            apps::SuiteJob job;
            job.label = std::string(apps::browserName(engine)) + "/" +
                        apps::scenarioName(scenario);
            job.factory = [engine, scenario] {
                return apps::makeBrowser(engine, scenario);
            };
            job.options = bench::paperRunOptions();
            jobs.push_back(std::move(job));
        }
    }
    std::vector<apps::AppRunResult> results =
        bench::runSuiteParallel(jobs);

    std::size_t next = 0;
    for (auto engine : kEngines) {
        for (auto scenario : kScenarios) {
            const apps::AppRunResult &result = results[next++];

            // Count the application's processes in the last trace.
            std::size_t processes = result.lastPids.size();
            table.row()
                .cell(apps::browserName(engine))
                .cell(apps::scenarioName(scenario))
                .cell(std::uint64_t(processes))
                .cell(result.tlp(), 2)
                .cell(result.gpuUtil(), 1);
        }
    }
    table.print(std::cout);

    std::printf(
        "\nExpected shape: multi-tab TLP similar or higher than "
        "single-tab (more processes, throttled background tabs) — "
        "the opposite of Blake et al. 2010;\nChrome spawns the most "
        "processes and leads TLP on ESPN; all browsers use more GPU "
        "on ESPN than on Wikipedia.\n");
    return 0;
}

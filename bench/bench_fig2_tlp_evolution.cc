/**
 * @file
 * Figure 2: TLP of desktop applications in 2000 (Flautner et al.),
 * 2010 (Blake et al.) and 2018 (this reproduction), grouped by
 * category. Historical bars come from report::history; the 2018 bars
 * are measured on the simulated machine.
 */

#include <cstdio>
#include <iostream>
#include <map>
#include <vector>

#include "bench_util.hh"
#include "report/history.hh"

using namespace deskpar;

int
main()
{
    bench::banner("Figure 2 - TLP evolution 2000/2010/2018",
                  "Section V-B, Figure 2");

    apps::RunOptions options = bench::paperRunOptions();

    // 2018 measurements, keyed to the figure's category groups.
    const std::vector<std::pair<std::string, std::string>> kMeasured =
        {
            {"azsunshine", "VR Gaming"},
            {"fallout4", "VR Gaming"},
            {"rawdata", "VR Gaming"},
            {"serioussam", "VR Gaming"},
            {"spacepirate", "VR Gaming"},
            {"projectcars2", "VR Gaming"},
            {"photoshop", "Image Authoring"},
            {"maya", "Image Authoring"},
            {"acrobat", "Office"},
            {"powerpoint", "Office"},
            {"word", "Office"},
            {"excel", "Office"},
            {"quicktime", "Media Playback"},
            {"wmplayer", "Media Playback"},
            {"premiere", "Video Authoring & Transcoding"},
            {"powerdirector", "Video Authoring & Transcoding"},
            {"handbrake", "Video Authoring & Transcoding"},
            {"firefox", "Web Browsing"},
            {"edge", "Web Browsing"},
        };

    report::TextTable table(
        {"Category", "Application", "Year", "TLP"});

    std::map<std::string, std::map<int, analysis::RunningStat>>
        byCategory;

    for (const auto &entry : report::tlpHistory()) {
        table.row()
            .cell(entry.category)
            .cell(entry.app)
            .cell(std::to_string(entry.year))
            .cell(entry.value, 1);
        byCategory[entry.category][entry.year].add(entry.value);
    }

    std::vector<apps::SuiteJob> jobs;
    for (const auto &[id, category] : kMeasured)
        jobs.push_back(apps::suiteJob(id, options));
    std::vector<apps::AppRunResult> results =
        bench::runSuiteParallel(jobs);

    // The 2018 bars go through the fused query layer rather than
    // reading AppRunResult::tlp() directly (see bench::fusedTlp).
    std::size_t next = 0;
    for (const auto &[id, category] : kMeasured) {
        const apps::AppRunResult &result = results[next++];
        double tlp = bench::fusedTlp(result);
        table.row()
            .cell(category)
            .cell(result.agg.app)
            .cell(std::string("2018"))
            .cell(tlp, 1);
        byCategory[category][2018].add(tlp);
    }

    table.print(std::cout);

    std::printf("\nCategory means by year (the figure's visual "
                "takeaway):\n");
    report::TextTable summary(
        {"Category", "2000", "2010", "2018"});
    for (const auto &[category, years] : byCategory) {
        auto cellFor = [&](int year) -> std::string {
            auto it = years.find(year);
            if (it == years.end() || it->second.count() == 0)
                return "-";
            return report::formatNumber(it->second.mean(), 1);
        };
        summary.row()
            .cell(category)
            .cell(cellFor(2000))
            .cell(cellFor(2010))
            .cell(cellFor(2018));
    }
    summary.print(std::cout);

    std::printf("\nExpected shape: most 2018 bars comparable or "
                "higher than 2010; VR gaming roughly 2x the TLP of "
                "2010 3D gaming;\nmedia playback and video authoring "
                "down 0.5-1.0 (stronger single cores); HandBrake up "
                "further.\n");
    return 0;
}

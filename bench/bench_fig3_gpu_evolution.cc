/**
 * @file
 * Figure 3: GPU utilization of desktop applications in 2010 (Blake
 * et al., GTX 285) versus 2018 (this reproduction, GTX 1080 Ti).
 * The paper's observation: all non-VR categories show *lower*
 * utilization on the 2018 GPU because GPU resources grew ~15x faster
 * than offloaded work, while VR matches 2010 3D-gaming utilization.
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
    bench::banner("Figure 3 - GPU utilization 2010 vs 2018",
                  "Section V-B, Figure 3");

    apps::RunOptions options = bench::paperRunOptions();

    const std::vector<std::pair<std::string, std::string>> kMeasured =
        {
            {"azsunshine", "VR Gaming"},
            {"fallout4", "VR Gaming"},
            {"rawdata", "VR Gaming"},
            {"serioussam", "VR Gaming"},
            {"spacepirate", "VR Gaming"},
            {"projectcars2", "VR Gaming"},
            {"maya", "Image Authoring"},
            {"photoshop", "Image Authoring"},
            {"autocad", "Image Authoring"},
            {"acrobat", "Office"},
            {"powerpoint", "Office"},
            {"word", "Office"},
            {"excel", "Office"},
            {"quicktime", "Media Playback"},
            {"wmplayer", "Media Playback"},
            {"vlc", "Media Playback"},
            {"powerdirector", "Video Authoring & Transcoding"},
            {"premiere", "Video Authoring & Transcoding"},
            {"handbrake", "Video Authoring & Transcoding"},
            {"winx", "Video Authoring & Transcoding"},
            {"firefox", "Web Browsing"},
            {"chrome", "Web Browsing"},
            {"edge", "Web Browsing"},
        };

    report::TextTable table(
        {"Category", "Application", "Year", "GPU util (%)"});
    std::map<std::string, std::map<int, analysis::RunningStat>>
        byCategory;

    for (const auto &entry : report::gpuHistory()) {
        table.row()
            .cell(entry.category)
            .cell(entry.app)
            .cell(std::to_string(entry.year))
            .cell(entry.value, 1);
        byCategory[entry.category][2010].add(entry.value);
    }

    for (const auto &[id, category] : kMeasured) {
        apps::AppRunResult result = apps::runWorkload(id, options);
        std::string name = apps::makeWorkload(id)->spec().name;
        table.row()
            .cell(category)
            .cell(name)
            .cell(std::string("2018"))
            .cell(result.gpuUtil(), 1);
        byCategory[category][2018].add(result.gpuUtil());
    }

    table.print(std::cout);

    std::printf("\nCategory means by year:\n");
    report::TextTable summary({"Category", "2010", "2018", "trend"});
    for (const auto &[category, years] : byCategory) {
        double y2010 = years.count(2010)
                           ? years.at(2010).mean()
                           : -1.0;
        double y2018 = years.count(2018)
                           ? years.at(2018).mean()
                           : -1.0;
        std::string trend = "-";
        if (y2010 >= 0.0 && y2018 >= 0.0)
            trend = y2018 < y2010 ? "lower" : "higher/equal";
        summary.row()
            .cell(category)
            .cell(y2010 < 0 ? "-" : report::formatNumber(y2010, 1))
            .cell(y2018 < 0 ? "-" : report::formatNumber(y2018, 1))
            .cell(trend);
    }
    summary.print(std::cout);

    std::printf("\nExpected shape: every non-VR category lower in "
                "2018 than 2010; VR gaming 2018 commensurate with "
                "3D gaming 2010 (60-90%%).\n");
    return 0;
}

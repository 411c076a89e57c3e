/**
 * @file
 * Extension experiment (paper Section III-B/C): why application-level
 * TLP, and why background processes are killed before tracing. We run
 * Photoshop with increasing amounts of OS background noise and
 * compare the application-level metric (stable by construction) with
 * the system-wide TLP of the 2000/2010 methodologies (inflated by
 * whatever else runs).
 */

#include <cstdio>
#include <iostream>

#include "analysis/session.hh"
#include "apps/registry.hh"
#include "bench_util.hh"

using namespace deskpar;

int
main()
{
    bench::banner("Extension - application vs system TLP",
                  "Section III-B/III-C methodology");

    report::TextTable table({"Background noise", "App TLP",
                             "System TLP", "App GPU (%)",
                             "System GPU (%)"});

    for (double noise : {0.0, 1.0, 3.0}) {
        apps::RunOptions options = bench::paperRunOptions();
        options.iterations = 1;
        options.noiseIntensity = noise;
        apps::AppRunResult result =
            apps::runWorkload("photoshop", options);

        // Both views analyze the same trace: share one Session so
        // the GPU columns are built once for the two sweeps.
        analysis::Session session(result.lastBundle);
        auto app = session.app(result.lastPids);
        auto system = session.app(trace::PidSet{});

        char label[32];
        std::snprintf(label, sizeof(label), "%.1fx", noise);
        table.row()
            .cell(std::string(label))
            .cell(app.tlp(), 2)
            .cell(system.tlp(), 2)
            .cell(app.gpuUtilPercent(), 1)
            .cell(system.gpuUtilPercent(), 1);
    }
    table.print(std::cout);

    std::printf(
        "\nExpected shape: the application-level metrics stay flat "
        "across noise levels (the pid filter removes foreign\n"
        "events), while the system-wide numbers are distorted — "
        "system GPU inflates with the noise and system TLP is\n"
        "diluted by the noise's serial bursts. That distortion is "
        "why the paper measures per-application and ends\n"
        "unrelated processes before tracing (Sections III-B/C).\n");
    return 0;
}

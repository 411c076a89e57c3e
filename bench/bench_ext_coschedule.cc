/**
 * @file
 * Extension experiment (paper Section VII, first suggestion):
 * "Applications exhibiting complementary TLP characteristics can be
 * scheduled to execute concurrently to achieve best utilization of
 * the processor... the OS could schedule another task during troughs
 * in TLP."
 *
 * We co-run HandBrake (high TLP with periodic serialization troughs)
 * with Photoshop (bursty interactive) on one machine and measure:
 * each app's TLP alone vs co-scheduled, the combined system
 * utilization, and the throughput each app retains.
 */

#include <cstdio>
#include <iostream>

#include "analysis/analyzer.hh"
#include "analysis/session.hh"
#include "apps/registry.hh"
#include "bench_util.hh"
#include "input/driver.hh"

using namespace deskpar;

namespace {

struct CoRun
{
    analysis::AppMetrics handbrake;
    analysis::AppMetrics photoshop;
    analysis::AppMetrics system;
    double handbrakeFps = 0.0;
};

CoRun
run(bool with_photoshop)
{
    sim::MachineConfig config = sim::MachineConfig::paperDefault();
    config.seed = 42;
    sim::Machine machine(config);
    machine.session().start(0);

    auto handbrake = apps::makeWorkload("handbrake");
    apps::AppInstance hb = handbrake->instantiate(machine);

    apps::AppInstance ps;
    if (with_photoshop) {
        auto photoshop = apps::makeWorkload("photoshop");
        ps = photoshop->instantiate(machine);
        input::AutomationDriver driver;
        driver.install(machine, ps.script);
    }

    machine.run(sim::sec(30.0));
    machine.session().stop(machine.now());
    trace::TraceBundle bundle = machine.session().takeBundle();

    analysis::Session session(bundle);
    CoRun out;
    out.handbrake = session.app("handbrake");
    if (with_photoshop)
        out.photoshop = session.app("photoshop");
    out.system = session.app(trace::PidSet{});
    out.handbrakeFps = out.handbrake.frames.avgFps;
    return out;
}

} // namespace

int
main()
{
    bench::banner("Extension - co-scheduling complementary TLP",
                  "Section VII discussion, bullet 1");

    CoRun alone = run(false);
    CoRun both = run(true);

    report::TextTable table({"Setup", "HandBrake TLP",
                             "HandBrake FPS", "Photoshop TLP",
                             "System utilization (busy cores)"});
    table.row()
        .cell(std::string("HandBrake alone"))
        .cell(alone.handbrake.tlp(), 2)
        .cell(alone.handbrakeFps, 1)
        .cell(std::string("-"))
        .cell(alone.system.concurrency.utilization(), 2);
    table.row()
        .cell(std::string("HandBrake + Photoshop"))
        .cell(both.handbrake.tlp(), 2)
        .cell(both.handbrakeFps, 1)
        .cell(report::formatNumber(both.photoshop.tlp(), 2))
        .cell(both.system.concurrency.utilization(), 2);
    table.print(std::cout);

    double fps_kept = both.handbrakeFps / alone.handbrakeFps;
    double util_gain = both.system.concurrency.utilization() -
                       alone.system.concurrency.utilization();
    std::printf(
        "\nCo-scheduling raised average busy cores by %.2f while "
        "HandBrake kept %.0f%% of its solo transcode rate:\n"
        "Photoshop's bursts largely execute in HandBrake's "
        "serialization troughs, as the paper's discussion "
        "anticipates.\n",
        util_gain, fps_kept * 100.0);
    return 0;
}

/**
 * @file
 * Ablations of the machine-model design choices DESIGN.md calls out,
 * each isolating one mechanism against the paper conclusion it
 * carries:
 *
 *  A. SMT contention factor f — sweeps the whole-chip SMT gain for a
 *     transcoder (f=0: no gain; f=1: perfect doubling). The paper's
 *     Figure 8 behavior needs small f.
 *  B. Turbo ladder — with turbo disabled, low-core configurations
 *     lose their clock advantage and core scaling looks steeper.
 *  C. Scheduler quantum — responsiveness of an oversubscribed
 *     machine degrades with longer quanta while throughput holds.
 *  D. GPU compute queue slots — PhoenixMiner's overlapping packets
 *     (the Table II footnote) exist only with 2 hardware queues.
 *  E. LLC contention model — co-running two large-footprint
 *     transcoders oversubscribes the 12 MiB LLC; with the model
 *     enabled, combined throughput turns sub-additive.
 */

#include <cstdio>
#include <iostream>

#include "analysis/session.hh"
#include "apps/registry.hh"
#include "apps/standard.hh"
#include "apps/video.hh"
#include "bench_util.hh"
#include "input/driver.hh"

using namespace deskpar;

namespace {

void
ablationSmtFactor()
{
    std::printf("A. SMT contention factor (HandBrake structure, "
                "12 logical vs 6 physical)\n");
    report::TextTable table({"f", "FPS 6C/12T (SMT)",
                             "FPS 6C/6T (no SMT)",
                             "whole-chip SMT gain"});
    for (double f : {0.0, 0.15, 0.5, 1.0}) {
        apps::TranscoderParams params;
        params.spec = {"ablate-hb", "ablation transcoder",
                       "Ablation"};
        params.smtFriendliness = f;
        params.parallelFrameMs = 220.0;
        params.serialFrameMs = 9.0;

        apps::RunOptions smt = bench::paperRunOptions();
        smt.iterations = 1;
        apps::RunOptions no_smt = smt;
        no_smt.config.smtEnabled = false;
        no_smt.config.activeCpus = 6;

        apps::TranscoderModel model_a(params);
        apps::TranscoderModel model_b(params);
        double with_smt =
            apps::runWorkload(model_a, smt).fps.mean();
        double without =
            apps::runWorkload(model_b, no_smt).fps.mean();
        table.row()
            .cell(f, 2)
            .cell(with_smt, 1)
            .cell(without, 1)
            .cell(with_smt / without, 2);
    }
    table.print(std::cout);
    std::printf("   -> gain ~1.0 at f=0, approaching ~2.0 at f=1; "
                "the paper's modest transcoder gains imply small "
                "f.\n\n");
}

void
ablationTurbo()
{
    std::printf("B. Turbo ladder (HandBrake rate at 2 vs 12 "
                "logical)\n");
    report::TextTable table(
        {"Turbo", "FPS @2 logical", "FPS @12 logical", "ratio"});
    for (bool turbo : {true, false}) {
        apps::RunOptions narrow = bench::paperRunOptions();
        narrow.iterations = 1;
        narrow.config.activeCpus = 2;
        if (!turbo)
            narrow.config.cpu.turboClockGhz =
                narrow.config.cpu.baseClockGhz;
        apps::RunOptions wide = narrow;
        wide.config.activeCpus = 12;

        double r2 =
            apps::runWorkload("handbrake", narrow).fps.mean();
        double r12 =
            apps::runWorkload("handbrake", wide).fps.mean();
        table.row()
            .cell(std::string(turbo ? "on" : "off"))
            .cell(r2, 1)
            .cell(r12, 1)
            .cell(r12 / r2, 2);
    }
    table.print(std::cout);
    std::printf("   -> disabling turbo removes the low-core clock "
                "bonus: scaling looks steeper without it.\n\n");
}

void
ablationQuantum()
{
    std::printf("C. Scheduler quantum and UI priority boost (Word "
                "UI latency behind a transcoder, 2 physical "
                "cores)\n");
    report::TextTable table({"Quantum (ms)", "UI priority",
                             "Mean response (ms)",
                             "HandBrake FPS"});
    for (double quantum_ms : {2.0, 10.0, 40.0}) {
        for (bool elevated : {false, true}) {
            sim::MachineConfig config =
                sim::MachineConfig::paperDefault();
            config.seed = 42;
            config.smtEnabled = false;
            config.activeCpus = 2;
            config.quantum = sim::msec(quantum_ms);
            sim::Machine machine(config);
            machine.session().start(0);

            // Rebuild Word with the requested UI priority class.
            auto base = apps::makeWorkload("word");
            auto &word =
                dynamic_cast<apps::StandardAppModel &>(*base);
            apps::StandardAppParams params = word.params();
            params.elevatedUi = elevated;
            apps::StandardAppModel model(std::move(params));
            apps::AppInstance instance =
                model.instantiate(machine);
            auto handbrake = apps::makeWorkload("handbrake");
            handbrake->instantiate(machine);
            input::AutomationDriver driver;
            driver.install(machine, instance.script);

            machine.run(sim::sec(20.0));
            machine.session().stop(machine.now());
            trace::TraceBundle bundle =
                machine.session().takeBundle();

            analysis::Session session(bundle);
            auto response = session.responsiveness(
                trace::pidsWithPrefix(bundle, "word"));
            auto hb = session.app("handbrake");
            table.row()
                .cell(quantum_ms, 0)
                .cell(std::string(elevated ? "elevated"
                                           : "normal"))
                .cell(response.meanLatencyMs(), 2)
                .cell(hb.frames.avgFps, 1);
        }
    }
    table.print(std::cout);
    std::printf("   -> latency tracks the quantum on a saturated "
                "machine unless the UI is boosted (preemption "
                "collapses it);\n      throughput barely moves "
                "either way.\n\n");
}

void
ablationGpuQueues()
{
    std::printf("D. GPU compute queue slots (PhoenixMiner "
                "overlap)\n");
    report::TextTable table({"Compute queues", "GPU util (%)",
                             "Aggregate ratio", "Overlap flag"});
    for (unsigned slots : {1u, 2u}) {
        apps::RunOptions options = bench::paperRunOptions();
        options.iterations = 1;
        options.config.gpu.computeQueueSlots = slots;
        apps::AppRunResult result =
            apps::runWorkload("phoenixminer", options);
        const auto &gpu = result.iterations[0].metrics.gpu;
        table.row()
            .cell(std::uint64_t(slots))
            .cell(result.gpuUtil(), 1)
            .cell(gpu.aggregateRatio, 2)
            .cell(std::string(gpu.overlapped ? "yes" : "no"));
    }
    table.print(std::cout);
    std::printf("   -> the Table II '*100.0' footnote (two packets "
                "simultaneously executing) requires the second "
                "hardware queue.\n");
}

void
ablationLlc()
{
    std::printf("\nE. LLC contention model (two co-running "
                "HandBrakes, 9 MiB working set each, 12 MiB LLC)\n");
    report::TextTable table({"LLC model", "Solo FPS",
                             "Co-run combined FPS",
                             "Scaling efficiency"});
    for (bool enabled : {false, true}) {
        auto run = [enabled](unsigned copies) {
            sim::MachineConfig config =
                sim::MachineConfig::paperDefault();
            config.seed = 42;
            config.llcModelEnabled = enabled;
            sim::Machine machine(config);
            machine.session().start(0);
            for (unsigned i = 0; i < copies; ++i)
                apps::makeWorkload("handbrake")->instantiate(
                    machine);
            machine.run(sim::sec(20.0));
            machine.session().stop(machine.now());
            trace::TraceBundle bundle =
                machine.session().takeBundle();
            auto metrics =
                analysis::Session(bundle).app("handbrake");
            return metrics.frames.avgFps; // all copies' frames
        };
        double solo = run(1);
        double both = run(2);
        table.row()
            .cell(std::string(enabled ? "on" : "off"))
            .cell(solo, 1)
            .cell(both, 1)
            .cell(both / (2.0 * solo), 2);
    }
    table.print(std::cout);
    std::printf("   -> with the model on, the oversubscribed LLC "
                "caps the co-run below 2x a half-share — the "
                "chip-level cache pressure VTune hinted at.\n");
}

} // namespace

int
main()
{
    bench::banner("Ablations - machine-model design choices",
                  "DESIGN.md section 4");
    ablationSmtFactor();
    ablationTurbo();
    ablationQuantum();
    ablationGpuQueues();
    ablationLlc();
    return 0;
}

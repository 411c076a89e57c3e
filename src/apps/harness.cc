#include "apps/harness.hh"

#include "analysis/session.hh"
#include "apps/noise.hh"
#include "apps/registry.hh"
#include "input/driver.hh"
#include "obs/obs.hh"
#include "sim/logging.hh"

namespace deskpar::apps {

IterationOutput
runIteration(WorkloadModel &model, const RunOptions &options,
             unsigned iter)
{
    obs::Span span("sim.iteration", obs::SpanKind::Job, iter);
    sim::SimDuration duration =
        options.duration ? options.duration : model.duration();

    sim::MachineConfig config = options.config;
    config.seed = options.seedBase + iter * 7919;
    sim::Machine machine(config);

    machine.session().start(machine.now());
    if (options.noiseIntensity > 0.0)
        spawnBackgroundNoise(machine, options.noiseIntensity);
    AppInstance instance = model.instantiate(machine);

    if (!instance.script.empty()) {
        if (options.manualInput) {
            input::ManualDriver driver;
            driver.install(machine, instance.script);
        } else {
            input::AutomationDriver driver;
            driver.install(machine, instance.script);
        }
    }

    machine.run(duration);
    machine.session().stop(machine.now());

    // The queue counts on its hot path; publish once per iteration.
    const sim::EventQueue::Stats &events = machine.queue().stats();
    auto publish = [](const char *name, std::uint64_t value) {
        obs::counterAdd(name, static_cast<std::int64_t>(value));
    };
    publish("sim.events.scheduled", events.scheduled);
    publish("sim.events.rescheduled", events.rescheduled);
    publish("sim.events.cancelled", events.cancelled);
    publish("sim.events.fired", events.fired);
    publish("sim.events.peak_heap", events.peakHeap);
    publish("sim.cswitches",
            machine.scheduler().stats().contextSwitches);

    IterationOutput out;
    out.bundle = machine.session().takeBundle();
    out.pids =
        trace::pidsWithPrefix(out.bundle, instance.processPrefix);
    if (out.pids.empty()) {
        fatal("runWorkload: no processes matched prefix " +
              instance.processPrefix);
    }

    {
        analysis::Session session(out.bundle);
        out.result.metrics = session.app(out.pids);
    }
    out.result.sched = machine.scheduler().stats();
    for (trace::Pid pid : out.pids)
        out.result.gpuWork += machine.gpu().completedWork(pid);
    return out;
}

void
foldIteration(AppRunResult &result, IterationOutput &&out, bool last)
{
    result.agg.add(out.result.metrics);
    result.fps.add(out.result.metrics.frames.avgFps);
    double span = sim::toSeconds(out.bundle.duration());
    if (span > 0.0) {
        auto real = static_cast<double>(
            out.result.metrics.frames.frames -
            out.result.metrics.frames.synthesizedFrames);
        result.realFps.add(real / span);
    }
    result.iterations.push_back(std::move(out.result));
    if (out.ingest.bytes)
        result.ingest = out.ingest;

    if (last) {
        result.lastPids = std::move(out.pids);
        result.lastBundle = std::move(out.bundle);
    }
}

AppRunResult
runWorkload(WorkloadModel &model, const RunOptions &options)
{
    if (options.iterations == 0)
        fatal("runWorkload: zero iterations");

    AppRunResult result;
    result.agg.app = model.spec().name;

    for (unsigned iter = 0; iter < options.iterations; ++iter) {
        foldIteration(result, runIteration(model, options, iter),
                      iter + 1 == options.iterations);
    }
    return result;
}

AppRunResult
runWorkload(const std::string &id, const RunOptions &options)
{
    WorkloadPtr model = makeWorkload(id);
    return runWorkload(*model, options);
}

} // namespace deskpar::apps

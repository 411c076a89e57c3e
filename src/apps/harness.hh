/**
 * @file
 * The experiment harness: runs a workload model for N iterations on
 * configured machines, reproducing the paper's measurement loop of
 * Figure 1 (start app -> start trace -> drive inputs -> stop ->
 * analyze), and aggregates the per-iteration metrics.
 */

#ifndef DESKPAR_APPS_HARNESS_HH
#define DESKPAR_APPS_HARNESS_HH

#include <string>
#include <vector>

#include "analysis/analyzer.hh"
#include "apps/app.hh"
#include "sim/machine.hh"
#include "trace/session.hh"

namespace deskpar::apps {

/**
 * Options for one experiment (iterations share everything except
 * the seed).
 */
struct RunOptions
{
    sim::MachineConfig config = sim::MachineConfig::paperDefault();
    unsigned iterations = 3;
    std::uint64_t seedBase = 1;
    /** 0 = use the model's duration(). */
    sim::SimDuration duration = 0;
    /** Drive inputs manually (jittered) instead of via automation. */
    bool manualInput = false;
    /**
     * Spawn OS background noise alongside the application (the
     * processes the paper kills before tracing); 0 disables,
     * 1.0 is a typical idle desktop. Application-level filtering
     * keeps the app metrics clean either way.
     */
    double noiseIntensity = 0.0;
};

/**
 * Metrics of one iteration.
 */
struct IterationResult
{
    analysis::AppMetrics metrics;
    sim::SchedulerStats sched;
    /** GPU work units completed for the app (hash-rate style). */
    double gpuWork = 0.0;
};

/**
 * Aggregated result of an experiment.
 */
struct AppRunResult
{
    analysis::IterationAggregate agg;
    std::vector<IterationResult> iterations;
    /** Presented/transcoded frames per second across iterations. */
    analysis::RunningStat fps;
    /** Real (non-synthesized) frames per second. */
    analysis::RunningStat realFps;
    /** Trace of the last iteration (timeline figures). */
    trace::TraceBundle lastBundle;
    /** Pid set of the app in lastBundle. */
    trace::PidSet lastPids;

    double tlp() const { return agg.tlp.mean(); }
    double gpuUtil() const { return agg.gpuUtil.mean(); }
};

/**
 * Everything one simulated iteration produces. Intermediate form
 * shared by the serial loop and the parallel SuiteRunner so both
 * aggregate bit-identically.
 */
struct IterationOutput
{
    IterationResult result;
    trace::TraceBundle bundle;
    trace::PidSet pids;
};

/**
 * Run iteration @p iter of @p model under @p options on a fresh
 * machine seeded with `options.seedBase + iter * 7919` (the protocol
 * seed derivation). Pure function of (model params, options, iter):
 * safe to call concurrently for independent iterations.
 */
IterationOutput runIteration(WorkloadModel &model,
                             const RunOptions &options,
                             unsigned iter);

/**
 * Fold one iteration into @p result. Iterations must be folded in
 * ascending iteration order for bit-identical aggregates; @p last
 * marks the final iteration, whose bundle/pids are retained.
 */
void foldIteration(AppRunResult &result, IterationOutput &&out,
                   bool last);

/** Run @p model under @p options. */
AppRunResult runWorkload(WorkloadModel &model,
                         const RunOptions &options);

/** Convenience: look up the workload by registry id and run it. */
AppRunResult runWorkload(const std::string &id,
                         const RunOptions &options);

} // namespace deskpar::apps

#endif // DESKPAR_APPS_HARNESS_HH

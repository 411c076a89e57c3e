/**
 * @file
 * Reference metric sweeps: concurrency, GPU utilization,
 * responsiveness and power, each one full pass per call.
 */

#include <algorithm>
#include <vector>

#include "reference/analysis_legacy.hh"
#include "sim/logging.hh"
#include "trace/diagnostic.hh"

namespace deskpar::analysis {

namespace detail {

ConcurrencyProfile
referenceConcurrency(const trace::TraceBundle &bundle,
                     const TimelineSpec &spec, sim::SimTime t0,
                     sim::SimTime t1)
{
    if (bundle.numLogicalCpus == 0)
        deskpar::fatal("computeConcurrency: unknown CPU count");
    if (t1 <= t0)
        deskpar::fatal("computeConcurrency: empty window");
    ConcurrencyProfile profile = sweepConcurrency(bundle, spec, t0, t1);
    if (profile.outOfRangeCpuEvents > 0)
        trace::emitDiagnostic(outOfRangeCpusDiagnostic(
            profile.outOfRangeCpuEvents, bundle.numLogicalCpus));
    return profile;
}

} // namespace detail

namespace legacy {

ConcurrencyProfile
computeConcurrency(const TraceBundle &bundle, const PidSet &pids,
                   sim::SimTime t0, sim::SimTime t1)
{
    detail::TimelineSpec spec;
    spec.pids = pids;
    return detail::referenceConcurrency(bundle, spec, t0, t1);
}

ConcurrencyProfile
computeConcurrency(const TraceBundle &bundle, const PidSet &pids)
{
    return computeConcurrency(bundle, pids, bundle.startTime,
                              bundle.stopTime);
}

GpuUtilization
computeGpuUtil(const TraceBundle &bundle, const PidSet &pids,
               sim::SimTime t0, sim::SimTime t1)
{
    if (t1 <= t0)
        deskpar::fatal("computeGpuUtil: empty window");
    return detail::foldGpuPackets(bundle, pids, t0, t1, 0,
                                  bundle.gpuPackets.size(),
                                  /*startSorted=*/false);
}

GpuUtilization
computeGpuUtil(const TraceBundle &bundle, const PidSet &pids)
{
    return computeGpuUtil(bundle, pids, bundle.startTime,
                          bundle.stopTime);
}

Responsiveness
computeResponsiveness(const TraceBundle &bundle, const PidSet &pids)
{
    // Dispatch times of the application's threads, sorted (cswitch
    // streams are time-ordered already, but be defensive).
    std::vector<sim::SimTime> dispatches;
    for (const auto &e : bundle.cswitches) {
        bool is_app = e.newPid != 0 &&
                      (pids.empty() || pids.count(e.newPid) != 0);
        if (is_app)
            dispatches.push_back(e.timestamp);
    }
    std::sort(dispatches.begin(), dispatches.end());

    return detail::responsivenessFromDispatches(bundle, dispatches);
}

PowerEstimate
estimatePower(const TraceBundle &bundle, const sim::CpuSpec &cpu,
              const sim::GpuSpec &gpu)
{
    PowerEstimate out;
    out.seconds = sim::toSeconds(bundle.duration());
    if (bundle.duration() == 0)
        return out;

    GpuUtilization util = computeGpuUtil(bundle, PidSet{});
    return detail::powerFromBusyIntervals(
        detail::cpuBusyIntervals(bundle), out.seconds,
        util.busyRatio, cpu, gpu);
}

} // namespace legacy

} // namespace deskpar::analysis

/**
 * @file
 * Reference metric sweeps: concurrency, GPU utilization,
 * responsiveness and power, each one full pass per call.
 */

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "reference/analysis_legacy.hh"
#include "sim/logging.hh"
#include "trace/diagnostic.hh"

namespace deskpar::analysis {

namespace detail {

ConcurrencyProfile
sweepConcurrency(const trace::TraceBundle &bundle,
                 const TimelineSpec &spec, sim::SimTime t0,
                 sim::SimTime t1)
{
    const unsigned num_cpus = bundle.numLogicalCpus;
    // Sweep the per-CPU run timelines into +1/-1 deltas at the times
    // a target thread starts/stops occupying a CPU, clamped to the
    // window, then stable-sort them.
    std::vector<std::pair<sim::SimTime, int>> deltas;
    deltas.reserve(bundle.cswitches.size());
    std::vector<std::uint8_t> cpuBusy(num_cpus, 0);
    std::uint64_t out_of_range = 0;

    for (const auto &e : bundle.cswitches) {
        if (!cpuInMask(spec.cpuMask, e.cpu))
            continue;
        if (e.cpu >= cpuBusy.size()) {
            // A cpu id past the header's CPU count contradicts the
            // trace; count it instead of growing the histogram.
            ++out_of_range;
            continue;
        }
        std::uint8_t now_busy =
            isTargetSwitch(spec, e.newPid, e.newTid) ? 1 : 0;
        if (cpuBusy[e.cpu] == now_busy)
            continue;
        sim::SimTime ts = std::clamp(e.timestamp, t0, t1);
        deltas.emplace_back(ts, now_busy ? 1 : -1);
        cpuBusy[e.cpu] = now_busy;
    }

    // cswitches are chronological, so a stable sort keeps each CPU's
    // +1 ahead of its matching -1 even when clamping collapses both
    // onto a window edge.
    std::stable_sort(deltas.begin(), deltas.end(),
                     [](const auto &a, const auto &b) {
                         return a.first < b.first;
                     });

    ConcurrencyProfile profile;
    profile.numCpus = num_cpus;
    profile.window = t1 - t0;
    profile.c.assign(num_cpus + 1, 0.0);
    profile.outOfRangeCpuEvents = out_of_range;

    sim::SimTime prev = t0;
    int level = 0;
    std::vector<sim::SimDuration> timeAt(num_cpus + 1, 0);
    for (const auto &[ts, delta] : deltas) {
        if (ts > prev) {
            if (level < 0)
                deskpar::panic(
                    "computeConcurrency: negative concurrency");
            auto lvl = static_cast<unsigned>(std::clamp(
                level, 0, static_cast<int>(num_cpus)));
            timeAt[lvl] += ts - prev;
            prev = ts;
        }
        level += delta;
    }
    if (level < 0)
        deskpar::panic("computeConcurrency: negative concurrency");
    if (t1 > prev) {
        auto lvl = static_cast<unsigned>(
            std::clamp(level, 0, static_cast<int>(num_cpus)));
        timeAt[lvl] += t1 - prev;
    }

    double window = static_cast<double>(profile.window);
    for (unsigned i = 0; i <= num_cpus; ++i)
        profile.c[i] = static_cast<double>(timeAt[i]) / window;
    return profile;
}

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

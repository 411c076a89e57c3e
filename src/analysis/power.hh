/**
 * @file
 * First-order power/energy estimation from a trace.
 *
 * The paper's framing (Dennard scaling, dark silicon, TDP walls,
 * Section I and the ASIC-vs-GPU mining citation) motivates asking
 * what the measured utilization *costs*. This estimator converts a
 * trace's CPU concurrency and GPU busy time into package power using
 * the specs' TDP/idle figures:
 *
 *   P_cpu = idle + (TDP - idle) * busy-logical-CPUs / num-logical
 *   P_gpu = idle + (TDP - idle) * busy-fraction
 *
 * It is deliberately linear-in-utilization — good enough to compare
 * configurations (SMT on/off, core counts, GPU offload) and to rank
 * energy-per-frame, not to predict wall-socket watts.
 */

#ifndef DESKPAR_ANALYSIS_POWER_HH
#define DESKPAR_ANALYSIS_POWER_HH

#include <map>
#include <vector>

#include "analysis/intervals.hh"
#include "sim/cpu.hh"
#include "sim/gpu.hh"
#include "trace/event.hh"
#include "trace/session.hh"

namespace deskpar::analysis {

/**
 * Power/energy summary of one trace window.
 */
struct PowerEstimate
{
    double cpuWatts = 0.0;
    double gpuWatts = 0.0;
    /** Window length in seconds. */
    double seconds = 0.0;

    double totalWatts() const { return cpuWatts + gpuWatts; }
    double energyJoules() const { return totalWatts() * seconds; }

    /** Joules per unit of work (e.g. per transcoded frame). */
    double
    energyPer(double units) const
    {
        return units > 0.0 ? energyJoules() / units : 0.0;
    }
};

namespace detail {

/**
 * Per-logical-CPU busy intervals reconstructed from the context-
 * switch stream (any non-idle pid counts; power is machine-level).
 * The index caches them; the reference in tests/ rebuilds them.
 */
std::map<trace::CpuId, std::vector<Interval>>
cpuBusyIntervals(const trace::TraceBundle &bundle);

/**
 * The spec model over prebuilt busy intervals and a GPU busy ratio
 * (TraceIndex::power estimates the whole bundle window with it; all
 * processes contribute). @p seconds must be the nonzero window length.
 */
PowerEstimate powerFromBusyIntervals(
    const std::map<trace::CpuId, std::vector<Interval>> &intervals,
    double seconds, double gpu_busy_ratio, const sim::CpuSpec &cpu,
    const sim::GpuSpec &gpu);

} // namespace detail

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_POWER_HH

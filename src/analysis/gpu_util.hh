/**
 * @file
 * GPU utilization per the paper's Section III-B: "the amount of time
 * spent by work packets actually running over a period of time ...
 * measured by aggregating for all packets the ratio of packet running
 * time to total time."
 *
 * The aggregate ratio can exceed 1 when packets overlap on multiple
 * hardware queues (the paper's PhoenixMiner footnote: "two packets
 * were simultaneously executing on the GPU throughout the
 * experiment"); the reported utilization is capped at 100% with the
 * overlap flagged. The union-busy ratio is also computed.
 */

#ifndef DESKPAR_ANALYSIS_GPU_UTIL_HH
#define DESKPAR_ANALYSIS_GPU_UTIL_HH

#include <array>
#include <cstddef>

#include "trace/event.hh"
#include "trace/filter.hh"
#include "trace/session.hh"

namespace deskpar::analysis {

using trace::PidSet;
using trace::TraceBundle;

/**
 * GPU utilization of one trace window.
 */
struct GpuUtilization
{
    /** Sum of packet running time over the window (may exceed 1). */
    double aggregateRatio = 0.0;

    /** Fraction of the window with at least one packet running. */
    double busyRatio = 0.0;

    /** Aggregate ratio broken down per engine. */
    std::array<double, trace::kNumGpuEngines> perEngine{};

    /** Number of packets contributing. */
    std::size_t packetCount = 0;

    /** True when packets overlapped (aggregate > busy). */
    bool overlapped = false;

    /** The paper's headline number: min(aggregate, 1) * 100. */
    double
    utilizationPercent() const
    {
        return (aggregateRatio > 1.0 ? 1.0 : aggregateRatio) * 100.0;
    }
};

namespace detail {

/**
 * Fold gpuPackets[first, last) into a GpuUtilization over
 * [@p t0, @p t1), in stream order. Shared by the index's
 * candidate-range query and the full-scan reference in tests/
 * (first=0, last=size), so the floating-point accumulation order —
 * and hence the result — is the same in both: packets clamped to
 * nothing contribute no terms.
 *
 * @p startSorted promises the range is sorted by start: the busy
 * union then merges in the same pass, with no interval vector and no
 * sort. Otherwise (and always in the full scan) the clamped
 * intervals are collected, sorted and merged. The union is an
 * integer length either way, so busyRatio is the same bits.
 */
GpuUtilization foldGpuPackets(const TraceBundle &bundle,
                              const PidSet &pids, sim::SimTime t0,
                              sim::SimTime t1, std::size_t first,
                              std::size_t last, bool startSorted);

} // namespace detail

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_GPU_UTIL_HH

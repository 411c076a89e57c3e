#include "analysis/gpu_util.hh"

#include <algorithm>

#include "analysis/intervals.hh"

namespace deskpar::analysis {

namespace detail {

GpuUtilization
foldGpuPackets(const TraceBundle &bundle, const PidSet &pids,
               sim::SimTime t0, sim::SimTime t1, std::size_t first,
               std::size_t last, bool startSorted)
{
    GpuUtilization out;
    double window = static_cast<double>(t1 - t0);

    // Start-sorted packets clamp to non-decreasing begins, so their
    // union merges as a running [runBegin, runEnd) in the same pass;
    // otherwise collect, sort and merge.
    std::vector<Interval> busy;
    sim::SimDuration busyNs = 0;
    sim::SimTime runBegin = 0;
    sim::SimTime runEnd = 0;
    bool running = false;
    for (std::size_t i = first; i < last; ++i) {
        const auto &e = bundle.gpuPackets[i];
        if (!pids.empty() && pids.count(e.pid) == 0)
            continue;
        Interval iv = Interval{e.start, e.finish}.clampTo(t0, t1);
        if (iv.empty())
            continue;
        ++out.packetCount;
        double share = static_cast<double>(iv.length()) / window;
        out.aggregateRatio += share;
        out.perEngine[static_cast<unsigned>(e.engine)] += share;
        if (!startSorted) {
            busy.push_back(iv);
        } else if (running && iv.begin <= runEnd) {
            runEnd = std::max(runEnd, iv.end);
        } else {
            if (running)
                busyNs += runEnd - runBegin;
            runBegin = iv.begin;
            runEnd = iv.end;
            running = true;
        }
    }
    if (!startSorted)
        busyNs = unionLengthInPlace(busy);
    else if (running)
        busyNs += runEnd - runBegin;

    out.busyRatio = static_cast<double>(busyNs) / window;
    out.overlapped = out.aggregateRatio > out.busyRatio + 1e-9;
    return out;
}

} // namespace detail

} // namespace deskpar::analysis

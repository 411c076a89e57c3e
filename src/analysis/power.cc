#include "analysis/power.hh"

#include <map>
#include <vector>

#include "analysis/intervals.hh"

namespace deskpar::analysis {

namespace detail {

std::map<trace::CpuId, std::vector<Interval>>
cpuBusyIntervals(const trace::TraceBundle &bundle)
{
    std::map<trace::CpuId, std::vector<Interval>> out;
    std::map<trace::CpuId, sim::SimTime> busySince;
    std::map<trace::CpuId, bool> busy;

    for (const auto &e : bundle.cswitches) {
        bool now_busy = e.newPid != 0;
        bool &was_busy = busy[e.cpu];
        if (was_busy && !now_busy) {
            out[e.cpu].push_back(
                Interval{busySince[e.cpu], e.timestamp});
        } else if (!was_busy && now_busy) {
            busySince[e.cpu] = e.timestamp;
        }
        was_busy = now_busy;
    }
    for (auto &[cpu, is_busy] : busy) {
        if (is_busy) {
            out[cpu].push_back(
                Interval{busySince[cpu], bundle.stopTime});
        }
    }
    return out;
}

PowerEstimate
powerFromBusyIntervals(
    const std::map<trace::CpuId, std::vector<Interval>> &intervals,
    double seconds, double gpu_busy_ratio, const sim::CpuSpec &cpu,
    const sim::GpuSpec &gpu)
{
    PowerEstimate out;
    out.seconds = seconds;

    // A physical core burns its share of (TDP - idle) while either
    // hardware thread runs; the second thread adds only a small
    // increment (shared FUs/caches) — that is why SMT is nearly free
    // energy-wise.
    constexpr double kSmtPowerIncrement = 0.07;

    unsigned tpc = cpu.threadsPerCore;
    double core_seconds = 0.0;  // physical-core busy time
    double smt_seconds = 0.0;   // both-siblings-busy time
    for (unsigned core = 0; core < cpu.physicalCores; ++core) {
        std::vector<Interval> any;
        double thread_sum = 0.0;
        for (unsigned t = 0; t < tpc; ++t) {
            auto it = intervals.find(core * tpc + t);
            if (it == intervals.end())
                continue;
            thread_sum += sim::toSeconds(totalLength(it->second));
            any.insert(any.end(), it->second.begin(),
                       it->second.end());
        }
        double union_s = sim::toSeconds(unionLengthInPlace(any));
        core_seconds += union_s;
        smt_seconds += thread_sum - union_s;
    }

    double per_core = (cpu.tdpWatts - cpu.idleWatts) /
                      static_cast<double>(cpu.physicalCores);
    out.cpuWatts =
        cpu.idleWatts +
        per_core * (core_seconds +
                    kSmtPowerIncrement * smt_seconds) /
            out.seconds;

    out.gpuWatts = gpu.idleWatts +
                   (gpu.tdpWatts - gpu.idleWatts) * gpu_busy_ratio;
    return out;
}

} // namespace detail

} // namespace deskpar::analysis

#include "trace/filter.hh"

#include <utility>

#include "trace/parse.hh"

namespace deskpar::trace {

PidSet
pidsWithPrefix(const TraceBundle &bundle, const std::string &name_prefix)
{
    std::vector<Pid> matches = bundle.pidsByPrefix(name_prefix);
    return PidSet(matches.begin(), matches.end());
}

PidSet
allApplicationPids(const TraceBundle &bundle)
{
    PidSet pids;
    auto add = [&](Pid pid) {
        if (pid != 0)
            pids.insert(pid);
    };
    for (const auto &[pid, name] : bundle.processNames)
        add(pid);
    for (const auto &e : bundle.cswitches) {
        add(e.oldPid);
        add(e.newPid);
    }
    for (const auto &e : bundle.gpuPackets)
        add(e.pid);
    for (const auto &e : bundle.frames)
        add(e.pid);
    for (const auto &e : bundle.threadEvents)
        add(e.pid);
    for (const auto &e : bundle.processEvents)
        add(e.pid);
    return pids;
}

PidSet
replayPids(const TraceBundle &bundle, const std::string &path,
           const std::string &appPrefix)
{
    PidSet pids = appPrefix.empty() ? allApplicationPids(bundle)
                                    : pidsWithPrefix(bundle, appPrefix);
    if (pids.empty()) {
        ParseError err;
        err.source = path;
        err.section = "replay";
        err.reason = appPrefix.empty()
                         ? "trace contains no application processes"
                         : "no process name starts with '" +
                               appPrefix + "'";
        throw TraceParseError(std::move(err));
    }
    return pids;
}

TraceBundle
filterByPids(const TraceBundle &bundle, const PidSet &pids)
{
    TraceBundle out;
    out.startTime = bundle.startTime;
    out.stopTime = bundle.stopTime;
    out.numLogicalCpus = bundle.numLogicalCpus;

    for (const auto &[pid, name] : bundle.processNames) {
        if (pids.count(pid) || pid == 0)
            out.processNames.emplace(pid, name);
    }

    for (CSwitchEvent e : bundle.cswitches) {
        bool old_in = pids.count(e.oldPid) != 0;
        bool new_in = pids.count(e.newPid) != 0;
        if (!old_in && !new_in)
            continue;
        // Rewrite foreign endpoints as idle so per-CPU application
        // busy intervals are preserved exactly.
        if (!old_in) {
            e.oldPid = 0;
            e.oldTid = 0;
        }
        if (!new_in) {
            e.newPid = 0;
            e.newTid = 0;
            // Zero wait, not time-zero: a fabricated [0, timestamp)
            // ready interval would dominate any wait analysis.
            e.readyTime = e.timestamp;
        }
        out.cswitches.push_back(e);
    }

    for (const auto &e : bundle.gpuPackets) {
        if (pids.count(e.pid))
            out.gpuPackets.push_back(e);
    }
    for (const auto &e : bundle.frames) {
        if (pids.count(e.pid))
            out.frames.push_back(e);
    }
    for (const auto &e : bundle.threadEvents) {
        if (pids.count(e.pid))
            out.threadEvents.push_back(e);
    }
    for (const auto &e : bundle.processEvents) {
        if (pids.count(e.pid))
            out.processEvents.push_back(e);
    }
    out.markers = bundle.markers;
    return out;
}

} // namespace deskpar::trace

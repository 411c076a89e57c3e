#include "trace/merge.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace deskpar::trace {

namespace {

/** Stable-sort @p events by @p key unless they are in order already. */
template <typename Event, typename Key>
void
sortStream(std::vector<Event> &events, Key key)
{
    auto before = [key](const Event &a, const Event &b) {
        return key(a) < key(b);
    };
    if (!std::is_sorted(events.begin(), events.end(), before))
        std::stable_sort(events.begin(), events.end(), before);
}

} // namespace

void
sortBundle(TraceBundle &bundle)
{
    auto timestamp = [](const auto &e) { return e.timestamp; };
    sortStream(bundle.cswitches, timestamp);
    sortStream(bundle.gpuPackets,
               [](const GpuPacketEvent &p) { return p.start; });
    sortStream(bundle.frames, timestamp);
    sortStream(bundle.threadEvents, timestamp);
    sortStream(bundle.processEvents, timestamp);
    sortStream(bundle.markers, timestamp);
}

void
canonicalize(TraceBundle &bundle)
{
    sortBundle(bundle);

    if (bundle.numLogicalCpus == 0 && !bundle.cswitches.empty()) {
        CpuId top = 0;
        for (const CSwitchEvent &e : bundle.cswitches)
            top = std::max(top, e.cpu);
        bundle.numLogicalCpus =
            top < kMaxLogicalCpus ? top + 1 : kMaxLogicalCpus;
    }

    if (bundle.stopTime > bundle.startTime)
        return;
    bool seen = false;
    SimTime lo = 0, hi = 0;
    auto observe = [&](SimTime t) {
        lo = seen ? std::min(lo, t) : t;
        hi = seen ? std::max(hi, t) : t;
        seen = true;
    };
    // Sorted streams: the extent of each is its first and last event.
    auto ends = [&](const auto &events) {
        if (!events.empty()) {
            observe(events.front().timestamp);
            observe(events.back().timestamp);
        }
    };
    ends(bundle.cswitches);
    ends(bundle.frames);
    ends(bundle.threadEvents);
    ends(bundle.processEvents);
    ends(bundle.markers);
    for (const GpuPacketEvent &p : bundle.gpuPackets) {
        observe(p.start);
        observe(p.finish);
    }
    if (seen) {
        bundle.startTime = lo;
        bundle.stopTime = hi;
    }
}

ParseResult<TraceBundle>
mergeBundlesChecked(const TraceBundle &a, const TraceBundle &b)
{
    auto incompatible = [](std::string reason) {
        ParseError e;
        e.section = "merge";
        e.reason = std::move(reason);
        return e;
    };

    if (a.numLogicalCpus != b.numLogicalCpus) {
        return incompatible(
            "logical-CPU counts differ (" +
            std::to_string(a.numLogicalCpus) + " vs " +
            std::to_string(b.numLogicalCpus) + ")");
    }

    TraceBundle out;
    out.startTime = std::min(a.startTime, b.startTime);
    out.stopTime = std::max(a.stopTime, b.stopTime);
    out.numLogicalCpus = a.numLogicalCpus;

    out.processNames = a.processNames;
    for (const auto &[pid, name] : b.processNames) {
        auto [it, inserted] = out.processNames.emplace(pid, name);
        if (!inserted && it->second != name) {
            return incompatible(
                "pid " + std::to_string(pid) + " names conflict ('" +
                it->second + "' vs '" + name + "')");
        }
    }

    auto append = [](auto &dst, const auto &x, const auto &y) {
        dst.reserve(x.size() + y.size());
        dst.insert(dst.end(), x.begin(), x.end());
        dst.insert(dst.end(), y.begin(), y.end());
    };
    append(out.cswitches, a.cswitches, b.cswitches);
    append(out.gpuPackets, a.gpuPackets, b.gpuPackets);
    append(out.frames, a.frames, b.frames);
    append(out.threadEvents, a.threadEvents, b.threadEvents);
    append(out.processEvents, a.processEvents, b.processEvents);
    append(out.markers, a.markers, b.markers);

    sortBundle(out);
    return out;
}

} // namespace deskpar::trace

/**
 * @file
 * The sequential bottleneck reference: the original map-based sweep,
 * thread-key collection and finalization, with an inline,
 * stream-order per-thread fold. Kept independent of the production
 * flat pass in src/analysis/blocking.cc so it can serve as its
 * differential oracle.
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <string>
#include <tuple>
#include <utility>
#include <vector>

#include "reference/analysis_legacy.hh"

namespace deskpar::analysis::blocking::legacy {

namespace {

using sim::SimTime;
using trace::Pid;
using trace::Tid;

/** One thread: (pid, tid). */
using Key = std::pair<trace::Pid, trace::Tid>;

struct EdgeAgg
{
    std::uint64_t count = 0;
    std::uint64_t waitNs = 0;
};

struct ChainState
{
    std::uint64_t chainNs = 0;
    std::uint64_t links = 0;
    Key prev{0, 0};
    bool hasPrev = false;
};

/** Everything one deterministic pass over the cswitch stream yields. */
struct SweepResult
{
    std::map<Key, std::uint64_t> runNs;
    std::map<Key, std::uint64_t> blockedNs;
    std::map<std::pair<Key, Key>, EdgeAgg> edges;
    std::map<Key, ChainState> chains;
    /** (thread, wait ns) per target switch-in, stream order. */
    std::vector<std::pair<Key, std::uint64_t>> waitSamples;
    std::uint64_t totalRunNs = 0;
    std::uint64_t totalWaitNs = 0;
    /** Last switch time: the window reaches at least this far. */
    sim::SimTime maxTs = 0;
};

std::string
threadName(const trace::TraceBundle &bundle, Pid pid)
{
    auto it = bundle.processNames.find(pid);
    if (it != bundle.processNames.end() && !it->second.empty())
        return it->second;
    return "pid" + std::to_string(pid);
}

void
sweep(const trace::TraceBundle &bundle, const trace::PidSet &pids,
      SweepResult &r)
{
    auto target = [&pids](Pid pid, Tid tid) {
        (void)tid;
        if (pid == 0)
            return false;
        return pids.empty() || pids.count(pid) != 0;
    };

    struct Occupant
    {
        Pid pid = 0;
        Tid tid = 0;
        SimTime since = 0;
        bool valid = false;
    };
    // Ordered so the end-of-stream close below visits CPUs
    // deterministically.
    std::map<trace::CpuId, Occupant> cpus;

    auto closeSegment = [&r, &target](const Occupant &occ,
                                      SimTime now) {
        // Disordered streams can invert a segment; drop it rather
        // than wrap the unsigned subtraction.
        if (!occ.valid || now <= occ.since)
            return;
        if (!target(occ.pid, occ.tid))
            return;
        std::uint64_t seg = now - occ.since;
        Key key{occ.pid, occ.tid};
        r.runNs[key] += seg;
        r.totalRunNs += seg;
        r.chains[key].chainNs += seg;
    };

    for (const auto &e : bundle.cswitches) {
        r.maxTs = std::max(r.maxTs, e.timestamp);
        Occupant &occ = cpus[e.cpu];
        closeSegment(occ, e.timestamp);

        if (target(e.newPid, e.newTid)) {
            // Readers clamp inverted ready times; clamp again so a
            // hand-built bundle cannot wrap the wait.
            SimTime ready = std::min(e.readyTime, e.timestamp);
            std::uint64_t wait = e.timestamp - ready;
            Key to{e.newPid, e.newTid};
            r.waitSamples.emplace_back(to, wait);
            r.totalWaitNs += wait;
            if (e.oldPid != 0 && target(e.oldPid, e.oldTid)) {
                // The wakeup edge: old held this CPU for the tail of
                // the wait, so the chain may continue through it.
                Key from{e.oldPid, e.oldTid};
                EdgeAgg &edge = r.edges[{from, to}];
                ++edge.count;
                edge.waitNs += wait;
                r.blockedNs[from] += wait;
                ChainState &fromChain = r.chains[from];
                ChainState &toChain = r.chains[to];
                if (fromChain.chainNs > toChain.chainNs) {
                    toChain.chainNs = fromChain.chainNs;
                    toChain.links = fromChain.links + 1;
                    toChain.prev = from;
                    toChain.hasPrev = true;
                }
            }
        }

        if (e.newPid == 0) {
            occ.valid = false;
        } else {
            occ = Occupant{e.newPid, e.newTid, e.timestamp, true};
        }
    }

    // Threads still on a CPU when the trace stops: their final
    // segment runs to the observation-window end (the header's if it
    // has one, else the last timestamp the stream showed us).
    SimTime stop = std::max(bundle.stopTime, r.maxTs);
    for (const auto &[cpu, occ] : cpus)
        closeSegment(occ, stop);
}

void
finalize(const trace::TraceBundle &bundle, SweepResult &r,
         std::vector<ThreadBlocking> rows, BlockingReport &report)
{
    report.t0 = bundle.startTime;
    report.t1 = std::max({bundle.stopTime, r.maxTs, report.t0});
    report.numCpus = bundle.numLogicalCpus;
    report.totalRunNs = r.totalRunNs;
    report.totalWaitNs = r.totalWaitNs;
    report.dispatches = r.waitSamples.size();

    for (ThreadBlocking &row : rows)
        row.name = threadName(bundle, row.pid);
    std::sort(rows.begin(), rows.end(),
              [](const ThreadBlocking &a, const ThreadBlocking &b) {
                  if (a.waitNs != b.waitNs)
                      return a.waitNs > b.waitNs;
                  if (a.pid != b.pid)
                      return a.pid < b.pid;
                  return a.tid < b.tid;
              });
    report.threads = std::move(rows);

    report.edges.reserve(r.edges.size());
    for (const auto &[key, agg] : r.edges) {
        WakeupEdge edge;
        edge.fromPid = key.first.first;
        edge.fromTid = key.first.second;
        edge.toPid = key.second.first;
        edge.toTid = key.second.second;
        edge.count = agg.count;
        edge.waitNs = agg.waitNs;
        report.edges.push_back(edge);
    }
    std::sort(report.edges.begin(), report.edges.end(),
              [](const WakeupEdge &a, const WakeupEdge &b) {
                  if (a.waitNs != b.waitNs)
                      return a.waitNs > b.waitNs;
                  return std::tie(a.fromPid, a.fromTid, a.toPid,
                                  a.toTid) <
                         std::tie(b.fromPid, b.fromTid, b.toPid,
                                  b.toTid);
              });

    // Critical path: the thread whose chain is longest; ties resolve
    // to the lowest (pid, tid) by map order. The predecessor
    // pointers summarize a DP whose state mutates as the sweep
    // advances, so the backwalk is a bounded summary, not an exact
    // segment list.
    Key best{0, 0};
    const ChainState *bestChain = nullptr;
    for (const auto &[key, chain] : r.chains) {
        if (!bestChain || chain.chainNs > bestChain->chainNs) {
            best = key;
            bestChain = &chain;
        }
    }
    if (bestChain && bestChain->chainNs > 0) {
        report.criticalPathNs = bestChain->chainNs;
        report.criticalPathSwitches = bestChain->links;
        std::vector<CriticalPathHop> hops;
        Key cur = best;
        for (std::size_t i = 0; i < 64; ++i) {
            hops.push_back(CriticalPathHop{cur.first, cur.second});
            auto it = r.chains.find(cur);
            if (it == r.chains.end() || !it->second.hasPrev)
                break;
            cur = it->second.prev;
        }
        std::reverse(hops.begin(), hops.end());
        report.criticalPath = std::move(hops);
    }
}

/** Sorted distinct thread keys the report must have rows for. */
std::vector<Key>
threadKeys(const SweepResult &r)
{
    std::vector<Key> keys;
    for (const auto &[key, ns] : r.runNs)
        keys.push_back(key);
    for (const auto &[key, ns] : r.blockedNs)
        keys.push_back(key);
    for (const auto &[key, wait] : r.waitSamples)
        keys.push_back(key);
    std::sort(keys.begin(), keys.end());
    keys.erase(std::unique(keys.begin(), keys.end()), keys.end());
    return keys;
}

} // namespace

BlockingReport
analyze(const trace::TraceBundle &bundle, const trace::PidSet &pids)
{
    SweepResult r;
    sweep(bundle, pids, r);

    // Inline sequential fold: one ordered map, stream-order adds.
    struct WaitAgg
    {
        std::uint64_t waitNs = 0;
        std::uint64_t maxWaitNs = 0;
        std::uint64_t dispatches = 0;
    };
    std::map<Key, WaitAgg> waits;
    for (const auto &[key, wait] : r.waitSamples) {
        WaitAgg &agg = waits[key];
        agg.waitNs += wait;
        agg.maxWaitNs = std::max(agg.maxWaitNs, wait);
        ++agg.dispatches;
    }

    auto lookupNs = [](const std::map<Key, std::uint64_t> &map,
                       Key key) -> std::uint64_t {
        auto it = map.find(key);
        return it == map.end() ? 0 : it->second;
    };

    std::vector<ThreadBlocking> rows;
    for (Key key : threadKeys(r)) {
        ThreadBlocking row;
        row.pid = key.first;
        row.tid = key.second;
        row.runNs = lookupNs(r.runNs, key);
        row.blockedNs = lookupNs(r.blockedNs, key);
        auto it = waits.find(key);
        if (it != waits.end()) {
            row.waitNs = it->second.waitNs;
            row.maxWaitNs = it->second.maxWaitNs;
            row.dispatches = it->second.dispatches;
        }
        rows.push_back(std::move(row));
    }

    BlockingReport report;
    finalize(bundle, r, std::move(rows), report);
    return report;
}

} // namespace deskpar::analysis::blocking::legacy

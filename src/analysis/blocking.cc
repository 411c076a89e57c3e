#include "analysis/blocking.hh"

#include <algorithm>
#include <cstdio>
#include <map>
#include <tuple>
#include <utility>
#include <vector>

#include "analysis/trace_index.hh"
#include "obs/obs.hh"
#include "sim/parallel.hh"

namespace deskpar::analysis::blocking {

using sim::SimTime;
using trace::Pid;
using trace::Tid;
using detail::Key;
using detail::SweepResult;

namespace {

std::string
threadName(const trace::TraceBundle &bundle, Pid pid)
{
    auto it = bundle.processNames.find(pid);
    if (it != bundle.processNames.end() && !it->second.empty())
        return it->second;
    return "pid" + std::to_string(pid);
}

std::uint64_t
lookupNs(const std::map<Key, std::uint64_t> &map, Key key)
{
    auto it = map.find(key);
    return it == map.end() ? 0 : it->second;
}

} // namespace

namespace detail {

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
        if (!r.sawEvents) {
            r.minTs = e.timestamp;
            r.maxTs = e.timestamp;
            r.sawEvents = true;
        } else {
            r.minTs = std::min(r.minTs, e.timestamp);
            r.maxTs = std::max(r.maxTs, e.timestamp);
        }
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
    r.cpusSeen = cpus.size();
}

void
finalize(const trace::TraceBundle &bundle, SweepResult &r,
         std::vector<ThreadBlocking> rows, BlockingReport &report)
{
    // Headerless bundles (bare CPU-Usage CSVs) get the observed
    // stream extent so the wait-TLP and serial-fraction ratios stay
    // meaningful; ETL headers win when present.
    if (bundle.stopTime > bundle.startTime) {
        report.t0 = bundle.startTime;
        report.t1 = std::max(bundle.stopTime, r.maxTs);
    } else if (r.sawEvents) {
        report.t0 = r.minTs;
        report.t1 = r.maxTs;
    }
    report.numCpus = bundle.numLogicalCpus != 0
                         ? bundle.numLogicalCpus
                         : static_cast<unsigned>(r.cpusSeen);
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

} // namespace detail

double
BlockingReport::windowSeconds() const
{
    return sim::toSeconds(t1 - t0);
}

double
BlockingReport::waitTlp() const
{
    double window = windowSeconds();
    return window > 0.0 ? sim::toSeconds(totalWaitNs) / window : 0.0;
}

double
BlockingReport::serialFraction() const
{
    double window = windowSeconds();
    return window > 0.0 ? sim::toSeconds(criticalPathNs) / window
                        : 0.0;
}

const char *
BlockingReport::classification() const
{
    return bottleneckLimited() ? "bottleneck-limited"
                               : "structurally serial";
}

BlockingReport
analyze(const TraceIndex &index, const trace::PidSet &pids,
        unsigned threads)
{
    const trace::TraceBundle &bundle = index.bundle();
    obs::Span span("blocking.analyze", obs::SpanKind::Query,
                   bundle.cswitches.size());

    SweepResult r;
    detail::sweep(bundle, pids, r);

    // Bucket the stream-ordered wait samples per thread (sequential,
    // cheap), then fold every thread's bucket concurrently. Each
    // task owns its row outright, and the per-thread sample order is
    // the stream order the reference folds in — integer sums, so any
    // DESKPAR_JOBS lands on the identical report.
    std::vector<Key> keys = detail::threadKeys(r);
    std::map<Key, std::size_t> indexOf;
    for (std::size_t i = 0; i < keys.size(); ++i)
        indexOf.emplace(keys[i], i);
    std::vector<std::vector<std::uint64_t>> samples(keys.size());
    for (const auto &[key, wait] : r.waitSamples)
        samples[indexOf.find(key)->second].push_back(wait);

    std::vector<ThreadBlocking> rows(keys.size());
    unsigned jobs = sim::resolveJobs(threads);
    sim::parallelFor(jobs, keys.size(), [&](std::size_t i) {
        ThreadBlocking &row = rows[i];
        row.pid = keys[i].first;
        row.tid = keys[i].second;
        row.runNs = lookupNs(r.runNs, keys[i]);
        row.blockedNs = lookupNs(r.blockedNs, keys[i]);
        for (std::uint64_t wait : samples[i]) {
            row.waitNs += wait;
            row.maxWaitNs = std::max(row.maxWaitNs, wait);
            ++row.dispatches;
        }
    });

    BlockingReport report;
    detail::finalize(bundle, r, std::move(rows), report);
    return report;
}

namespace {

std::string
fmtMs(std::uint64_t ns)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.3f",
                  static_cast<double>(ns) / 1e6);
    return buf;
}

std::string
fmt3(double v)
{
    char buf[48];
    std::snprintf(buf, sizeof buf, "%.3f", v);
    return buf;
}

std::string
threadLabel(const ThreadBlocking &t)
{
    return t.name + "/tid" + std::to_string(t.tid);
}

const ThreadBlocking *
findThread(const BlockingReport &report, Pid pid, Tid tid)
{
    for (const ThreadBlocking &t : report.threads) {
        if (t.pid == pid && t.tid == tid)
            return &t;
    }
    return nullptr;
}

std::string
hopLabel(const BlockingReport &report, const CriticalPathHop &hop)
{
    if (const ThreadBlocking *t =
            findThread(report, hop.pid, hop.tid))
        return threadLabel(*t);
    return "pid" + std::to_string(hop.pid) + "/tid" +
           std::to_string(hop.tid);
}

} // namespace

std::string
renderReport(const BlockingReport &report, std::size_t top)
{
    std::string out;
    out += "window " + fmt3(report.windowSeconds()) + " s, " +
           std::to_string(report.numCpus) + " cpus, " +
           std::to_string(report.dispatches) + " dispatches\n";
    out += "on-cpu " + fmtMs(report.totalRunNs) + " ms, ready-wait " +
           fmtMs(report.totalWaitNs) + " ms (wait-TLP " +
           fmt3(report.waitTlp()) + ")\n";
    out += "critical path " + fmtMs(report.criticalPathNs) +
           " ms across " +
           std::to_string(report.criticalPathSwitches) +
           " wakeups (serial fraction " +
           fmt3(report.serialFraction()) + ")\n";
    out += std::string("classification: ") + report.classification() +
           "\n";

    out += "\ntop blocked threads (victims):\n";
    std::size_t shown = 0;
    for (const ThreadBlocking &t : report.threads) {
        if (shown >= top)
            break;
        if (t.waitNs == 0)
            break; // sorted by waitNs: nothing further waited
        ++shown;
        out += "  " + threadLabel(t) + "  wait " + fmtMs(t.waitNs) +
               " ms over " + std::to_string(t.dispatches) +
               " dispatches (max " + fmtMs(t.maxWaitNs) +
               " ms), on-cpu " + fmtMs(t.runNs) + " ms\n";
    }
    if (shown == 0)
        out += "  (none)\n";

    out += "\ntop blocking threads (culprits):\n";
    std::vector<const ThreadBlocking *> culprits;
    for (const ThreadBlocking &t : report.threads) {
        if (t.blockedNs > 0)
            culprits.push_back(&t);
    }
    std::sort(culprits.begin(), culprits.end(),
              [](const ThreadBlocking *a, const ThreadBlocking *b) {
                  if (a->blockedNs != b->blockedNs)
                      return a->blockedNs > b->blockedNs;
                  if (a->pid != b->pid)
                      return a->pid < b->pid;
                  return a->tid < b->tid;
              });
    if (culprits.size() > top)
        culprits.resize(top);
    for (const ThreadBlocking *t : culprits) {
        out += "  " + threadLabel(*t) + "  others waited " +
               fmtMs(t->blockedNs) + " ms behind it, on-cpu " +
               fmtMs(t->runNs) + " ms\n";
    }
    if (culprits.empty())
        out += "  (none)\n";

    out += "\nhottest wakeup edges:\n";
    std::size_t edgeCount = std::min(top, report.edges.size());
    for (std::size_t i = 0; i < edgeCount; ++i) {
        const WakeupEdge &e = report.edges[i];
        if (e.waitNs == 0)
            break;
        std::string from = "pid" + std::to_string(e.fromPid) +
                           "/tid" + std::to_string(e.fromTid);
        std::string to = "pid" + std::to_string(e.toPid) + "/tid" +
                         std::to_string(e.toTid);
        if (const ThreadBlocking *t =
                findThread(report, e.fromPid, e.fromTid))
            from = threadLabel(*t);
        if (const ThreadBlocking *t =
                findThread(report, e.toPid, e.toTid))
            to = threadLabel(*t);
        out += "  " + from + " -> " + to + "  " + fmtMs(e.waitNs) +
               " ms over " + std::to_string(e.count) + " wakeups" +
               (e.fromPid == e.toPid && e.fromTid == e.toTid
                    ? " (self)"
                    : "") +
               "\n";
    }
    if (edgeCount == 0 ||
        (edgeCount > 0 && report.edges[0].waitNs == 0))
        out += "  (none)\n";

    out += "\ncritical path (root -> terminal):\n";
    if (report.criticalPath.empty()) {
        out += "  (empty)\n";
    } else {
        // The backwalk can cycle through a tight wakeup loop for all
        // 64 capped hops; the text report shows the head and tail of
        // the path instead of the full loop (the JSON has it all).
        constexpr std::size_t kMaxHops = 12;
        std::size_t n = report.criticalPath.size();
        if (n <= kMaxHops) {
            for (const CriticalPathHop &hop : report.criticalPath)
                out += "  " + hopLabel(report, hop) + "\n";
        } else {
            for (std::size_t i = 0; i < kMaxHops - 2; ++i)
                out += "  " +
                       hopLabel(report, report.criticalPath[i]) +
                       "\n";
            out += "  ... (" +
                   std::to_string(n - (kMaxHops - 1)) +
                   " more hops)\n";
            out += "  " +
                   hopLabel(report, report.criticalPath[n - 1]) +
                   "\n";
        }
    }
    return out;
}

} // namespace deskpar::analysis::blocking

#include "analysis/blocking.hh"

#include <algorithm>
#include <cstdio>
#include <limits>
#include <tuple>
#include <unordered_map>
#include <vector>

#include "analysis/trace_index.hh"
#include "obs/obs.hh"

namespace deskpar::analysis::blocking {

using sim::SimTime;
using trace::Pid;
using trace::Tid;

namespace {

constexpr std::uint32_t kNone =
    std::numeric_limits<std::uint32_t>::max();

/**
 * CPU ids below this index a vector grown on demand (a stream may
 * use ids past its header's CPU count); larger ids, which only
 * hostile streams carry, go to a side map instead of a huge
 * allocation.
 */
constexpr trace::CpuId kDenseCpus = 4096;

/** Everything the pass keeps for one (pid, tid), indexed by id. */
struct ThreadState
{
    Pid pid = 0;
    Tid tid = 0;
    /** Inside the pid filter (resolved once, at intern time). */
    bool target = false;
    /** Source of some wakeup edge: a row even at zero blockedNs. */
    bool blocker = false;
    /** The chain DP's predecessor id, kNone at a chain root. */
    std::uint32_t prev = kNone;
    std::uint64_t runNs = 0;
    std::uint64_t blockedNs = 0;
    std::uint64_t waitNs = 0;
    std::uint64_t maxWaitNs = 0;
    std::uint64_t dispatches = 0;
    std::uint64_t chainNs = 0;
    std::uint64_t links = 0;
};

struct Occupant
{
    Pid pid = 0;
    Tid tid = 0;
    /** Thread id of (pid, tid); kept after the CPU goes idle. */
    std::uint32_t id = kNone;
    SimTime since = 0;
    bool valid = false;
};

struct EdgeState
{
    std::uint32_t from = 0;
    std::uint32_t to = 0;
    std::uint64_t count = 0;
    std::uint64_t waitNs = 0;
};

std::uint64_t
pairKey(std::uint32_t hi, std::uint32_t lo)
{
    return std::uint64_t{hi} << 32 | lo;
}

std::string
threadName(const trace::TraceBundle &bundle, Pid pid)
{
    auto it = bundle.processNames.find(pid);
    if (it != bundle.processNames.end() && !it->second.empty())
        return it->second;
    return "pid" + std::to_string(pid);
}

/**
 * The per-CPU running-thread state machine and the chain DP, in one
 * pass over the stream with every thread interned to a dense id.
 */
class Pass
{
  public:
    Pass(const trace::TraceBundle &bundle, const trace::PidSet &pids)
        : bundle_(bundle), pids_(pids),
          cpus_(std::min(bundle.numLogicalCpus, kDenseCpus))
    {}

    void run(BlockingReport &report);

    /** Rows, edges and the critical path from the flat state. */
    void finalize(BlockingReport &report);

  private:
    std::uint32_t
    intern(Pid pid, Tid tid)
    {
        auto [it, fresh] = ids_.try_emplace(
            pairKey(pid, tid),
            static_cast<std::uint32_t>(threads_.size()));
        if (fresh) {
            ThreadState &t = threads_.emplace_back();
            t.pid = pid;
            t.tid = tid;
            t.target = pids_.empty() || pids_.count(pid) != 0;
        }
        return it->second;
    }

    Occupant &
    occupant(trace::CpuId cpu)
    {
        if (cpu < cpus_.size())
            return cpus_[cpu];
        if (cpu < kDenseCpus) {
            cpus_.resize(cpu + 1);
            return cpus_[cpu];
        }
        return otherCpus_[cpu];
    }

    void
    close(const Occupant &occ, SimTime now, BlockingReport &report)
    {
        // Disordered streams can invert a segment; drop it rather
        // than wrap the unsigned subtraction.
        if (!occ.valid || now <= occ.since)
            return;
        ThreadState &t = threads_[occ.id];
        if (!t.target)
            return;
        std::uint64_t seg = now - occ.since;
        t.runNs += seg;
        t.chainNs += seg;
        report.totalRunNs += seg;
    }

    const trace::TraceBundle &bundle_;
    const trace::PidSet &pids_;
    std::vector<ThreadState> threads_;
    std::unordered_map<std::uint64_t, std::uint32_t> ids_;
    std::vector<EdgeState> edges_;
    std::unordered_map<std::uint64_t, std::uint32_t> edgeIds_;
    std::vector<Occupant> cpus_;
    std::unordered_map<trace::CpuId, Occupant> otherCpus_;
    SimTime maxTs_ = 0;
};

void
Pass::run(BlockingReport &report)
{
    for (const trace::CSwitchEvent &e : bundle_.cswitches) {
        maxTs_ = std::max(maxTs_, e.timestamp);
        Occupant &occ = occupant(e.cpu);
        close(occ, e.timestamp, report);
        if (e.newPid == 0) {
            occ.valid = false;
            continue;
        }

        std::uint32_t to = intern(e.newPid, e.newTid);
        if (threads_[to].target) {
            // Readers clamp inverted ready times; clamp again so a
            // hand-built bundle cannot wrap the wait.
            std::uint64_t wait =
                e.timestamp - std::min(e.readyTime, e.timestamp);
            ++report.dispatches;
            report.totalWaitNs += wait;
            std::uint32_t from = kNone;
            if (e.oldPid != 0)
                from = occ.pid == e.oldPid && occ.tid == e.oldTid
                           ? occ.id
                           : intern(e.oldPid, e.oldTid);
            ThreadState &t = threads_[to];
            t.waitNs += wait;
            t.maxWaitNs = std::max(t.maxWaitNs, wait);
            ++t.dispatches;
            if (from != kNone && threads_[from].target) {
                // The wakeup edge: old held this CPU for the tail of
                // the wait, so the chain may continue through it.
                ThreadState &f = threads_[from];
                auto [it, fresh] = edgeIds_.try_emplace(
                    pairKey(from, to),
                    static_cast<std::uint32_t>(edges_.size()));
                if (fresh)
                    edges_.push_back(EdgeState{from, to});
                EdgeState &edge = edges_[it->second];
                ++edge.count;
                edge.waitNs += wait;
                f.blockedNs += wait;
                f.blocker = true;
                if (f.chainNs > t.chainNs) {
                    t.chainNs = f.chainNs;
                    t.links = f.links + 1;
                    t.prev = from;
                }
            }
        }
        occ = Occupant{e.newPid, e.newTid, to, e.timestamp, true};
    }

    // Threads still on a CPU when the trace stops: their final
    // segment runs to the observation-window end (the header's if it
    // has one, else the last timestamp the stream showed us).
    SimTime stop = std::max(bundle_.stopTime, maxTs_);
    for (const Occupant &occ : cpus_)
        close(occ, stop, report);
    for (const auto &[cpu, occ] : otherCpus_)
        close(occ, stop, report);
}

void
Pass::finalize(BlockingReport &report)
{
    // The decoders settle the window and CPU count (a bare CPU-Usage
    // CSV gets the observed extent); the window reaches at least the
    // last switch and is never inverted.
    report.t0 = bundle_.startTime;
    report.t1 = std::max({bundle_.stopTime, maxTs_, report.t0});
    report.numCpus = bundle_.numLogicalCpus;

    // A thread gets a row when it ran a (positive) segment, was
    // dispatched, or was the source of an edge, even a zero-wait one.
    // Both sorts below are total orders on distinct keys, so the
    // discovery order of ids cannot show through. The exact reserves
    // keep Session::memoryBytes what it was for the same report.
    auto hasRow = [](const ThreadState &t) {
        return t.runNs != 0 || t.dispatches != 0 || t.blocker;
    };
    report.threads.reserve(static_cast<std::size_t>(
        std::count_if(threads_.begin(), threads_.end(), hasRow)));
    for (const ThreadState &t : threads_) {
        if (!hasRow(t))
            continue;
        report.threads.push_back(ThreadBlocking{
            t.pid, t.tid, threadName(bundle_, t.pid), t.runNs, t.waitNs,
            t.maxWaitNs, t.blockedNs, t.dispatches});
    }
    std::sort(report.threads.begin(), report.threads.end(),
              [](const ThreadBlocking &a, const ThreadBlocking &b) {
                  if (a.waitNs != b.waitNs)
                      return a.waitNs > b.waitNs;
                  return std::tie(a.pid, a.tid) <
                         std::tie(b.pid, b.tid);
              });

    report.edges.reserve(edges_.size());
    for (const EdgeState &e : edges_) {
        const ThreadState &from = threads_[e.from];
        const ThreadState &to = threads_[e.to];
        report.edges.push_back(WakeupEdge{from.pid, from.tid, to.pid,
                                          to.tid, e.count, e.waitNs});
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
    // to the lowest (pid, tid). The predecessor pointers summarize a
    // DP whose state mutates as the pass advances, so the backwalk is
    // a bounded summary, not an exact segment list.
    std::uint32_t best = kNone;
    for (std::uint32_t id = 0; id < threads_.size(); ++id) {
        const ThreadState &t = threads_[id];
        if (t.chainNs == 0)
            continue;
        if (best == kNone || t.chainNs > threads_[best].chainNs ||
            (t.chainNs == threads_[best].chainNs &&
             std::tie(t.pid, t.tid) <
                 std::tie(threads_[best].pid, threads_[best].tid)))
            best = id;
    }
    if (best == kNone)
        return;
    report.criticalPathNs = threads_[best].chainNs;
    report.criticalPathSwitches = threads_[best].links;
    for (std::uint32_t cur = best;
         cur != kNone && report.criticalPath.size() < 64;
         cur = threads_[cur].prev)
        report.criticalPath.push_back(
            CriticalPathHop{threads_[cur].pid, threads_[cur].tid});
    std::reverse(report.criticalPath.begin(),
                 report.criticalPath.end());
}

} // namespace

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
analyze(const TraceIndex &index, const trace::PidSet &pids)
{
    const trace::TraceBundle &bundle = index.bundle();
    obs::Span span("blocking.analyze", obs::SpanKind::Query,
                   bundle.cswitches.size());

    BlockingReport report;
    Pass pass(bundle, pids);
    pass.run(report);
    pass.finalize(report);
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

/**
 * @file
 * Wakeup-chain serialization-bottleneck analysis, in the spirit of
 * GAPP (Generic Automatic Parallel Profiler): given only the CSwitch
 * stream with per-dispatch ready times, reconstruct which thread's
 * switch-out made whom runnable on which CPU, rank threads by the
 * time others spent blocked behind them, and extract the longest
 * serialized execution chain (the trace's critical path).
 *
 * The model is deliberately minimal — it needs nothing beyond what
 * every reader in this repo already decodes:
 *
 *  - every switch-in of thread T at time t carries readyTime r <= t
 *    (the readers clamp or reject inversions); [r, t) is T's
 *    ready-queue wait for that dispatch;
 *  - the *wakeup edge* of that dispatch is (old -> T): the thread
 *    whose switch-out on that CPU let T run. With CSwitch-only data
 *    the immediately preceding occupant is the serializing
 *    predecessor — it held the CPU for the whole tail of T's wait.
 *    Idle switch-outs (pid 0) carry no edge: the CPU was free, so
 *    nothing on it serialized T. Self-edges (old == T) are kept —
 *    they mark quantum-limited threads that block on themselves;
 *  - the *critical path* chains run segments through wakeup edges:
 *    at each dispatch the new thread either continues its own chain
 *    or adopts the predecessor's longer one, and every on-CPU
 *    nanosecond extends the chain. The maximum over threads is the
 *    length of the longest serialized execution sequence, and
 *    criticalPathNs / window ("serial fraction") says how much of
 *    the wall clock one such chain alone covers.
 *
 * Everything is summed in integer nanoseconds, so the production
 * path (blocking::analyze: one sequential pass over dense thread ids
 * and flat per-thread state) is bit-identical to the map-based
 * reference in tests/reference/ — the differential tests assert
 * EXPECT_EQ on whole reports and their renders.
 *
 * With a pid filter, the analysis is *within* the selected set:
 * foreign threads neither appear as victims nor as culprits (their
 * occupancy still closes run segments correctly).
 */

#ifndef DESKPAR_ANALYSIS_BLOCKING_HH
#define DESKPAR_ANALYSIS_BLOCKING_HH

#include <cstdint>
#include <string>
#include <vector>

#include "trace/filter.hh"
#include "trace/session.hh"

namespace deskpar::analysis {

class TraceIndex;

namespace blocking {

/** Per-thread blocking aggregates (integer ns, so folds are exact). */
struct ThreadBlocking
{
    trace::Pid pid = 0;
    trace::Tid tid = 0;
    /** Process name at report time ("pid<N>" when unnamed). */
    std::string name;
    /** Time on CPU. */
    std::uint64_t runNs = 0;
    /** Ready-queue wait summed over this thread's dispatches. */
    std::uint64_t waitNs = 0;
    /** Longest single ready-queue wait. */
    std::uint64_t maxWaitNs = 0;
    /** Time *other* threads waited behind this thread's switch-outs. */
    std::uint64_t blockedNs = 0;
    /** Switch-ins. */
    std::uint64_t dispatches = 0;

    bool operator==(const ThreadBlocking &) const = default;
};

/** One wakeup edge: from's switch-out let to run. */
struct WakeupEdge
{
    trace::Pid fromPid = 0;
    trace::Tid fromTid = 0;
    trace::Pid toPid = 0;
    trace::Tid toTid = 0;
    /** Dispatches of to attributed to from. */
    std::uint64_t count = 0;
    /** Summed ready-queue wait across those dispatches. */
    std::uint64_t waitNs = 0;

    bool operator==(const WakeupEdge &) const = default;
};

/** One hop of the extracted critical path (root first). */
struct CriticalPathHop
{
    trace::Pid pid = 0;
    trace::Tid tid = 0;

    bool operator==(const CriticalPathHop &) const = default;
};

struct BlockingReport
{
    /** The analyzed window (the bundle's). */
    sim::SimTime t0 = 0;
    sim::SimTime t1 = 0;
    unsigned numCpus = 0;
    /** Target switch-ins. */
    std::uint64_t dispatches = 0;
    /** Summed target on-CPU time. */
    std::uint64_t totalRunNs = 0;
    /** Summed target ready-queue wait. */
    std::uint64_t totalWaitNs = 0;
    /** Sorted by waitNs descending, then (pid, tid) ascending. */
    std::vector<ThreadBlocking> threads;
    /** Sorted by waitNs descending, then endpoints ascending. */
    std::vector<WakeupEdge> edges;
    /** Longest serialized execution chain (run segments only). */
    std::uint64_t criticalPathNs = 0;
    /** Wakeup links along that chain. */
    std::uint64_t criticalPathSwitches = 0;
    /**
     * The chain's thread hops, root first, truncated to the last 64
     * links (the recorded predecessor pointers summarize a DP, so a
     * long chain revisiting threads folds onto itself).
     */
    std::vector<CriticalPathHop> criticalPath;

    bool operator==(const BlockingReport &) const = default;

    /** Window seconds. */
    double windowSeconds() const;

    /**
     * Mean number of threads sitting ready-to-run: totalWaitNs over
     * the window. The TLP-style serialization signal — "how many
     * runnable threads were denied a CPU on average".
     */
    double waitTlp() const;

    /** criticalPathNs / window: chain occupancy of the wall clock. */
    double serialFraction() const;

    /**
     * Classification for the suite table: a low-TLP app with
     * substantial ready-queue waiting (waitTlp >= 0.5) is
     * *bottleneck-limited* (runnable work exists, serialization
     * denies it CPUs); one with little waiting is *structurally
     * serial* (there was nothing else to run).
     */
    bool bottleneckLimited() const { return waitTlp() >= 0.5; }

    /** "bottleneck-limited" or "structurally serial". */
    const char *classification() const;
};

/**
 * The analysis: one sequential pass over the cswitch stream of the
 * index's bundle, restricted to @p pids (empty = every non-idle
 * process) — the chain DP is order-dependent, so the pass is serial
 * by nature. Session::bottlenecks memoizes it per pid set.
 */
BlockingReport analyze(const TraceIndex &index,
                       const trace::PidSet &pids);

/**
 * Render the human-readable bottleneck report: summary line, top
 * victim threads (most time blocked), top culprit threads (most
 * time others blocked behind them), hottest wakeup edges, and the
 * critical path. @p top caps each ranking section.
 */
std::string renderReport(const BlockingReport &report,
                         std::size_t top = 10);

} // namespace blocking

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_BLOCKING_HH

/**
 * @file
 * Trace session: the UIforETW-equivalent recording facility.
 *
 * A TraceSession collects the event streams emitted by the simulated
 * machine between start() and stop(). Providers can be masked so tests
 * can record only what they need. The recorded bundle can be saved to a
 * binary .etl-like container (etl.hh) or exported to wpaexporter-style
 * CSV (csv.hh), then analyzed (analysis/).
 */

#ifndef DESKPAR_TRACE_SESSION_HH
#define DESKPAR_TRACE_SESSION_HH

#include <cstdint>
#include <memory>
#include <string>
#include <unordered_map>
#include <vector>

#include "trace/event.hh"
#include "trace/parse.hh"

namespace deskpar::trace {

/** Bitmask of event providers a session records. */
enum ProviderFlags : std::uint32_t {
    kProviderCSwitch = 1u << 0,
    kProviderGpu = 1u << 1,
    kProviderFrames = 1u << 2,
    kProviderLifecycle = 1u << 3,
    kProviderMarkers = 1u << 4,
    kProviderAll = 0x1f,
};

/**
 * An immutable bag of recorded events plus session metadata. This is
 * what analyses consume; it can be produced live (TraceSession), read
 * from an .etl container, or parsed back from CSV.
 */
/**
 * The largest CPU count a trace may claim (16x the largest simulated
 * package): readers refuse a header above it and a CSV CPU id at or
 * above it, so hostile bytes cannot size a CPU-indexed allocation.
 */
inline constexpr std::uint32_t kMaxLogicalCpus = 1024;

struct TraceBundle
{
    /** Observation window. */
    SimTime startTime = 0;
    SimTime stopTime = 0;

    /** Number of logical CPUs on the traced machine. */
    std::uint32_t numLogicalCpus = 0;

    /** Pid -> process-name map captured at record time. */
    std::unordered_map<Pid, std::string> processNames;

    std::vector<CSwitchEvent> cswitches;
    std::vector<GpuPacketEvent> gpuPackets;
    std::vector<FrameEvent> frames;
    std::vector<ThreadLifeEvent> threadEvents;
    std::vector<ProcessLifeEvent> processEvents;
    std::vector<MarkerEvent> markers;

    /** Wall length of the observation window. */
    SimTime duration() const { return stopTime - startTime; }

    /** Total number of recorded events across all providers. */
    std::size_t totalEvents() const;

    /**
     * Approximate resident size of this bundle in bytes: the event
     * vectors (by capacity — what the allocator actually holds) plus
     * the name table. The currency of byte-bounded caches
     * (analysis::SessionCache); an estimate, not an accounting.
     */
    std::size_t memoryBytes() const;

    /**
     * Pids whose recorded process name matches exactly, sorted
     * ascending. Served from a lazily built name index (rebuilt when
     * processNames grows or shrinks; TraceSession invalidates it on
     * same-size renames). The lazy build is not synchronized: call
     * once before sharing a bundle across threads.
     */
    std::vector<Pid> pidsByName(const std::string &name) const;

    /**
     * Pids whose recorded process name starts with @p prefix, sorted
     * ascending. An empty prefix matches every registered process
     * (including pid 0 if it has a name-table entry). Backed by the
     * same lazy name index as pidsByName, so repeated prefix lookups
     * (one per Session::app call) stop rescanning processNames.
     */
    std::vector<Pid> pidsByPrefix(const std::string &prefix) const;

    /**
     * Structural defects that would silently corrupt the unsigned
     * delta encoding of writeEtl: an inverted observation window,
     * event streams not sorted by timestamp, or GPU packets with
     * queued > start or finish < start. Each defect names its
     * section and the offending record index; empty = encodable.
     */
    std::vector<ParseError> validateEncoding() const;

  private:
    struct NameIndex;
    const NameIndex &nameIndex() const;

    /**
     * Lazy name->pids index. A shared_ptr so copies of the bundle
     * share the immutable snapshot; validity is stamped with
     * processNames.size(), which catches every mutation except a
     * same-size rename — TraceSession::registerProcess (friend)
     * resets the pointer for that case.
     */
    mutable std::shared_ptr<const NameIndex> nameIndex_;

    friend class TraceSession;
};

/**
 * Live recording facility attached to a machine. The machine calls the
 * record*() hooks; they are cheap no-ops while the session is stopped
 * or the corresponding provider is masked off.
 */
class TraceSession
{
  public:
    /** Create a session recording the given providers. */
    explicit TraceSession(std::uint32_t providers = kProviderAll)
        : providers_(providers)
    {}

    /** Begin recording at simulated time @p now. */
    void start(SimTime now);

    /** Stop recording; the bundle window closes at @p now. */
    void stop(SimTime now);

    /** True while recording. */
    bool recording() const { return recording_; }

    /** Set the logical-CPU count stamped into the bundle. */
    void setNumLogicalCpus(std::uint32_t n) { bundle_.numLogicalCpus = n; }

    /**
     * @{ Recording hooks called by the simulated machine. These sit
     * on the per-event hot path, so the recording-state and
     * provider-mask tests are pre-folded into active_ at
     * start()/stop() time: a dormant hook is one AND plus a
     * predictable branch, not two loads and two tests.
     */
    void
    recordCSwitch(const CSwitchEvent &e)
    {
        if (active_ & kProviderCSwitch)
            bundle_.cswitches.push_back(e);
    }

    void
    recordGpuPacket(const GpuPacketEvent &e)
    {
        if (active_ & kProviderGpu)
            bundle_.gpuPackets.push_back(e);
    }

    void
    recordFrame(const FrameEvent &e)
    {
        if (active_ & kProviderFrames)
            bundle_.frames.push_back(e);
    }

    void
    recordThreadLife(const ThreadLifeEvent &e)
    {
        if (active_ & kProviderLifecycle)
            bundle_.threadEvents.push_back(e);
    }

    void recordProcessLife(const ProcessLifeEvent &e);

    void
    recordMarker(const MarkerEvent &e)
    {
        if (active_ & kProviderMarkers)
            bundle_.markers.push_back(e);
    }
    /** @} */

    /**
     * Register a process name with the session. Names are captured
     * even while stopped so that pid->name stays complete for
     * processes created before recording started.
     */
    void registerProcess(Pid pid, const std::string &name);

    /** Access the recorded bundle (valid after stop()). */
    const TraceBundle &bundle() const { return bundle_; }

    /** Move the bundle out, leaving the session empty. */
    TraceBundle takeBundle();

  private:
    std::uint32_t providers_;
    /** providers_ while recording, 0 while stopped. */
    std::uint32_t active_ = 0;
    bool recording_ = false;
    TraceBundle bundle_;
};

} // namespace deskpar::trace

#endif // DESKPAR_TRACE_SESSION_HH

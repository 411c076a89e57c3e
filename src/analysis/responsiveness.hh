/**
 * @file
 * Interactive responsiveness: the latency from a user-input delivery
 * to the application's first CPU dispatch afterwards.
 *
 * This extends the reproduction toward the 2000-era methodology the
 * paper builds on: Flautner et al. found that a second processor
 * improved the *responsiveness* of interactive applications even
 * when average TLP stayed below 2 (Section II). The input drivers
 * mark every delivery in the trace, so responsiveness can be
 * computed from the same bundles as TLP.
 */

#ifndef DESKPAR_ANALYSIS_RESPONSIVENESS_HH
#define DESKPAR_ANALYSIS_RESPONSIVENESS_HH

#include <vector>

#include "analysis/stats.hh"
#include "trace/filter.hh"
#include "trace/session.hh"

namespace deskpar::analysis {

/** Marker-label prefix the input drivers stamp on deliveries. */
inline constexpr const char *kInputMarkerPrefix = "input:";

/**
 * Input-to-dispatch latency statistics.
 */
struct Responsiveness
{
    /** Inputs found in the trace window. */
    std::size_t inputs = 0;
    /** Inputs that saw a subsequent dispatch of the application. */
    std::size_t answered = 0;
    /** Latency stats over answered inputs, in nanoseconds. */
    RunningStat latency;

    double meanLatencyMs() const { return latency.mean() * 1e-6; }
    double maxLatencyMs() const { return latency.max() * 1e-6; }
};

namespace detail {

/**
 * Responsiveness of the application whose sorted switch-in times are
 * @p dispatches: for each input marker, the time until the next
 * dispatch. The index caches the column per pid set (empty = any
 * non-idle process); the reference in tests/ collects it per call.
 */
Responsiveness
responsivenessFromDispatches(const trace::TraceBundle &bundle,
                             const std::vector<sim::SimTime> &dispatches);

} // namespace detail

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_RESPONSIVENESS_HH

/**
 * @file
 * Thread-Level Parallelism per the paper's Equation 1:
 *
 *     TLP = ( sum_{i=1..n} c_i * i ) / ( 1 - c_0 )
 *
 * where c_i is the fraction of the observation window during which
 * exactly i logical CPUs were simultaneously running threads of the
 * application under study, and n is the number of logical CPUs.
 * c_0 (idle time) is factored out, so waiting for user input does not
 * dilute the metric.
 */

#ifndef DESKPAR_ANALYSIS_TLP_HH
#define DESKPAR_ANALYSIS_TLP_HH

#include <cstdint>
#include <vector>

#include "trace/diagnostic.hh"
#include "trace/filter.hh"
#include "trace/session.hh"

namespace deskpar::analysis {

using trace::PidSet;
using trace::TraceBundle;

/**
 * The concurrency histogram of one trace window plus derived metrics.
 */
struct ConcurrencyProfile
{
    /**
     * c[i]: fraction of the window with exactly i target threads
     * running; size is numCpus + 1 and the entries sum to 1.
     */
    std::vector<double> c;

    /** Logical CPU count n (the TLP ceiling). */
    unsigned numCpus = 0;

    /** Window length the fractions refer to. */
    sim::SimDuration window = 0;

    /**
     * Context-switch events whose cpu id is >= numCpus. Such events
     * contradict the trace header (a corrupt stream or a wrong CPU
     * count); they are excluded from the histogram and counted here
     * instead of silently folding into the top concurrency level.
     */
    std::uint64_t outOfRangeCpuEvents = 0;

    /** TLP per Equation 1; 0 when the window is fully idle. */
    double tlp() const;

    /** Highest concurrency level observed (max instantaneous TLP). */
    unsigned maxConcurrency() const;

    /** c_0: fraction of the window with no target thread running. */
    double
    idleFraction() const
    {
        return c.empty() ? 1.0 : c[0];
    }

    /** Average concurrency including idle time (TLP * (1 - c0)). */
    double utilization() const;
};

namespace detail {

/**
 * Build (without emitting) the warning-severity Diagnostic for
 * @p count context switches on cpu ids >= @p header_cpus.
 * TraceIndex::warnOutOfRangeOnce emits it at most once per trace.
 */
trace::Diagnostic outOfRangeCpusDiagnostic(std::uint64_t count,
                                           unsigned header_cpus);

} // namespace detail

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_TLP_HH

/**
 * @file
 * Windowed time series over a trace: instantaneous TLP, concurrency,
 * GPU utilization and frame rate. These back the paper's Figures 5-7
 * (TLP/GPU over time under core scaling) and Figure 13 (instantaneous
 * VR frame rate per headset). Session's *Series methods build them
 * (session.hh; defined in timeseries.cc): windows of the given length
 * tile [bundle.startTime, bundle.stopTime), the last one clipped.
 */

#ifndef DESKPAR_ANALYSIS_TIMESERIES_HH
#define DESKPAR_ANALYSIS_TIMESERIES_HH

#include <vector>

#include "trace/filter.hh"
#include "trace/session.hh"

namespace deskpar::analysis {

using trace::PidSet;
using trace::TraceBundle;

/** One sample of a time series; @p t is the window's start time. */
struct TimePoint
{
    sim::SimTime t = 0;
    double value = 0.0;
};

/** A named series, ready for plotting or table dumps. */
struct TimeSeries
{
    std::string name;
    sim::SimDuration window = 0;
    std::vector<TimePoint> points;

    double maxValue() const;
    double meanValue() const;
};

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_TIMESERIES_HH

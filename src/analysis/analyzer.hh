/**
 * @file
 * The paper's per-application metrics of one trace (Session::app
 * fills them), and their aggregate over repeated iterations into
 * mean / standard deviation rows (Table II reports avg and sigma of
 * 3 iterations).
 */

#ifndef DESKPAR_ANALYSIS_ANALYZER_HH
#define DESKPAR_ANALYSIS_ANALYZER_HH

#include <string>
#include <vector>

#include "analysis/framerate.hh"
#include "analysis/gpu_util.hh"
#include "analysis/stats.hh"
#include "analysis/tlp.hh"

namespace deskpar::analysis {

/**
 * Metrics of one application in one trace (one iteration).
 */
struct AppMetrics
{
    ConcurrencyProfile concurrency;
    GpuUtilization gpu;
    FrameStats frames;

    double tlp() const { return concurrency.tlp(); }
    double gpuUtilPercent() const { return gpu.utilizationPercent(); }
};

/**
 * Aggregate of N iterations of one application: the Table II row.
 */
struct IterationAggregate
{
    std::string app;
    RunningStat tlp;
    RunningStat gpuUtil;
    RunningStat maxConcurrency;
    /** Mean execution-time fractions c_0 .. c_n across iterations. */
    std::vector<double> meanC;
    bool gpuOverlapped = false;

    /** Fold one iteration's metrics in. */
    void add(const AppMetrics &metrics);
};

} // namespace deskpar::analysis

#endif // DESKPAR_ANALYSIS_ANALYZER_HH

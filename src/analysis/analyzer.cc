#include "analysis/analyzer.hh"

namespace deskpar::analysis {

void
IterationAggregate::add(const AppMetrics &metrics)
{
    tlp.add(metrics.tlp());
    gpuUtil.add(metrics.gpuUtilPercent());
    maxConcurrency.add(
        static_cast<double>(metrics.concurrency.maxConcurrency()));
    gpuOverlapped = gpuOverlapped || metrics.gpu.overlapped;

    const auto &c = metrics.concurrency.c;
    if (meanC.size() < c.size())
        meanC.resize(c.size(), 0.0);
    // Incremental mean: meanC_k = meanC_{k-1} + (x - meanC_{k-1}) / k.
    double k = static_cast<double>(tlp.count());
    for (std::size_t i = 0; i < c.size(); ++i)
        meanC[i] += (c[i] - meanC[i]) / k;
}

} // namespace deskpar::analysis

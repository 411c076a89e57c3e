/**
 * @file
 * Shared helpers for the table/figure bench binaries: standard run
 * options (3 iterations x 30 s, the paper's protocol) and small
 * formatting utilities.
 */

#ifndef DESKPAR_BENCH_BENCH_UTIL_HH
#define DESKPAR_BENCH_BENCH_UTIL_HH

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <iostream>
#include <limits>
#include <string>
#include <vector>

#include "analysis/session.hh"
#include "apps/harness.hh"
#include "apps/registry.hh"
#include "apps/runner.hh"
#include "report/figure.hh"
#include "report/table.hh"

namespace deskpar::bench {

/** The paper's measurement protocol. */
inline apps::RunOptions
paperRunOptions()
{
    apps::RunOptions options;
    options.iterations = 3;
    options.duration = sim::sec(30.0);
    options.seedBase = 42;
    // DESKPAR_FAST=1 trims the protocol for smoke runs.
    if (const char *fast = std::getenv("DESKPAR_FAST");
        fast && fast[0] == '1') {
        options.iterations = 1;
        options.duration = sim::sec(8.0);
    }
    return options;
}

/** Print the standard bench banner. */
inline void
banner(const char *what, const char *paper_ref)
{
    std::printf("== deskpar reproduction: %s ==\n", what);
    std::printf("   (paper: %s)\n\n", paper_ref);
}

/**
 * Fan @p jobs out across the SuiteRunner (thread count from
 * DESKPAR_JOBS, default: all host cores) and return the results in
 * submission order. The shared entry point for the suite benches.
 */
inline std::vector<apps::AppRunResult>
runSuiteParallel(const std::vector<apps::SuiteJob> &jobs)
{
    return apps::runSuite(jobs);
}

/**
 * TLP of a run's retained trace, computed through the fused query
 * path (Session::query). Bit-identical to the TraceIndex value the
 * harness reads, so under DESKPAR_FAST (one iteration) this equals
 * result.tlp() exactly; under the full 3-iteration protocol it is
 * the final iteration's TLP (within sigma of the mean).
 */
inline double
fusedTlp(const apps::AppRunResult &result)
{
    analysis::Session session(result.lastBundle);
    return session.query({analysis::tlpQuery(result.lastPids)})
        .front()
        .rows.front()
        .value;
}

/**
 * Wall seconds of the fastest of @p repeats runs of @p fn, for the
 * times a bench prints. A single-shot sample swings with scheduler
 * noise: the minimum of a few repeats is the standard stable
 * estimator of the true cost (noise only ever adds time). Keep
 * repeats small (3-5) — the point is a steady printout, not
 * statistics.
 */
template <typename Fn>
inline double
minWallSeconds(unsigned repeats, Fn &&fn)
{
    double best = std::numeric_limits<double>::infinity();
    for (unsigned r = 0; r < repeats; ++r) {
        auto start = std::chrono::steady_clock::now();
        fn();
        std::chrono::duration<double> wall =
            std::chrono::steady_clock::now() - start;
        if (wall.count() < best)
            best = wall.count();
    }
    return best;
}

/** "x.x +- y.y" cell for avg/sigma pairs. */
inline std::string
meanSigma(const analysis::RunningStat &stat, int precision = 1)
{
    return report::formatNumber(stat.mean(), precision) + " +- " +
           report::formatNumber(stat.stddev(), precision);
}

/**
 * Shared driver for the Figures 5-7 timelines: run @p id once per
 * core count, print the instantaneous-TLP and GPU-utilization series
 * plus summary stats.
 */
inline void
runTimelineFigure(const std::string &id,
                  const std::vector<unsigned> &core_counts,
                  sim::SimDuration window)
{
    // One suite job per core count: the simulations fan out across
    // the runner pool, and the per-run series share one Session so
    // every window is a pair of binary searches instead of a full
    // event-stream sweep.
    std::vector<apps::SuiteJob> jobs;
    jobs.reserve(core_counts.size());
    for (unsigned cores : core_counts) {
        apps::RunOptions options = paperRunOptions();
        options.iterations = 1;
        options.config.activeCpus = cores;
        jobs.push_back(apps::suiteJob(id, options));
    }
    std::vector<apps::AppRunResult> results = runSuiteParallel(jobs);

    for (std::size_t i = 0; i < results.size(); ++i) {
        unsigned cores = core_counts[i];
        const apps::AppRunResult &result = results[i];

        analysis::Session session(result.lastBundle);
        auto conc =
            session.concurrencySeries(result.lastPids, window);
        auto gpu = session.gpuUtilSeries(result.lastPids, window);

        std::printf("\n--- %u logical cores (SMT on) ---\n", cores);
        std::printf("avg TLP %.2f | max instantaneous TLP %.1f | "
                    "GPU util %.1f%% | frames/s %.1f\n",
                    result.tlp(), conc.maxValue(), result.gpuUtil(),
                    result.fps.mean());

        report::Figure figure(
            "Instantaneous TLP (window avg), " +
                std::to_string(cores) + " cores",
            "time (s)", "threads running");
        auto &series = figure.addSeries("TLP");
        for (const auto &point : conc.points)
            series.add(sim::toSeconds(point.t), point.value);
        figure.printAscii(std::cout, 64, 10);

        report::Figure gfig("GPU utilization (%), " +
                                std::to_string(cores) + " cores",
                            "time (s)", "GPU %");
        auto &gseries = gfig.addSeries("GPU");
        for (const auto &point : gpu.points)
            gseries.add(sim::toSeconds(point.t), point.value);
        gfig.printAscii(std::cout, 64, 8);
    }
}

} // namespace deskpar::bench

#endif // DESKPAR_BENCH_BENCH_UTIL_HH

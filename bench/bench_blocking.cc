/**
 * @file
 * Wakeup-chain bottleneck microbenchmark plus the suite-wide
 * serialization table. Part one times two implementations over one
 * recorded oversubscribed trace (the GPU-less miner, whose ready
 * queue is always deep): the map-based reference
 * (blocking::legacy::analyze, from tests/reference/) and the
 * production flat pass (blocking::analyze). It fails unless both
 * reports are identical, and prints both per-report times. Part two
 * runs all 30 applications and
 * classifies each as bottleneck-limited (runnable threads denied
 * CPUs, wait-TLP >= 0.5) or structurally serial — the GAPP-style
 * answer to *why* a low-TLP app is low.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <iostream>
#include <utility>
#include <vector>

#include "analysis/blocking.hh"
#include "bench_util.hh"
#include "reference/analysis_legacy.hh"

using namespace deskpar;

int
main()
{
    bench::banner(
        "Wakeup-chain bottleneck analysis - flat pass vs map reference",
        "GAPP-style serialization attribution over Section III traces");

    apps::RunOptions options = bench::paperRunOptions();

    // --- Part one: A/B over one contended trace. -------------------
    // The miner pinned to 2 logical CPUs oversubscribes the machine,
    // so every dispatch carries a real ready-queue wait and the
    // report exercises edges and the critical path, not just run
    // segments.
    apps::RunOptions contended = options;
    contended.config.activeCpus = 2;
    std::vector<apps::SuiteJob> jobs = {
        apps::suiteJob("bitcoinminer", contended)};
    apps::AppRunResult miner =
        std::move(bench::runSuiteParallel(jobs).front());
    const trace::TraceBundle &bundle = miner.lastBundle;

    std::printf("trace: %zu cswitches, %.1f s, %u cpus\n",
                bundle.cswitches.size(),
                sim::toSeconds(bundle.duration()),
                bundle.numLogicalCpus);

    constexpr int kReps = 5;
    constexpr int kInner = 4;
    using Clock = std::chrono::steady_clock;

    analysis::blocking::BlockingReport reference;
    double bestSeq = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        Clock::time_point start = Clock::now();
        for (int i = 0; i < kInner; ++i) {
            auto r = analysis::blocking::legacy::analyze(
                bundle, miner.lastPids);
            if (rep == 0 && i == 0)
                reference = std::move(r);
        }
        std::chrono::duration<double> wall = Clock::now() - start;
        bestSeq = std::min(bestSeq, wall.count());
    }

    analysis::Session session(bundle);
    analysis::blocking::BlockingReport flat;
    double bestFlat = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        Clock::time_point start = Clock::now();
        for (int i = 0; i < kInner; ++i) {
            auto r = analysis::blocking::analyze(session.index(),
                                                 miner.lastPids);
            if (rep == 0 && i == 0)
                flat = std::move(r);
        }
        std::chrono::duration<double> wall = Clock::now() - start;
        bestFlat = std::min(bestFlat, wall.count());
    }

    if (!(flat == reference)) {
        std::fprintf(stderr,
                     "FAIL: flat-pass report differs from the "
                     "map-based reference\n");
        return 1;
    }
    std::printf("reports: flat pass == map-based reference\n");
    std::printf("\n%s\n",
                analysis::blocking::renderReport(reference, 5)
                    .c_str());

    std::printf("reference %.3f ms/report, flat pass %.3f ms/report\n",
                bestSeq * 1e3 / kInner, bestFlat * 1e3 / kInner);

    // --- Part two: the suite-wide classification table. ------------
    std::vector<apps::SuiteJob> suiteJobs;
    for (const auto &entry : apps::tableTwoSuite())
        suiteJobs.push_back(apps::suiteJob(entry.id, options));
    std::vector<apps::AppRunResult> results =
        bench::runSuiteParallel(suiteJobs);

    report::TextTable table({"Category", "Application", "TLP",
                             "Wait-TLP", "Serial frac.",
                             "Classification"});
    unsigned bottlenecked = 0;
    std::size_t next = 0;
    for (const auto &entry : apps::tableTwoSuite()) {
        const apps::AppRunResult &result = results[next++];
        analysis::Session appSession(result.lastBundle);
        analysis::blocking::BlockingReport report =
            appSession.bottlenecks(result.lastPids);
        if (report.bottleneckLimited())
            ++bottlenecked;
        table.row()
            .cell(entry.category)
            .cell(result.agg.app)
            .cell(result.tlp(), 2)
            .cell(report.waitTlp(), 2)
            .cell(report.serialFraction(), 2)
            .cell(report.classification());
    }
    table.print(std::cout);
    std::printf("\nSummary: %u of %zu apps are bottleneck-limited "
                "(runnable threads were denied CPUs); the rest are "
                "structurally serial.\n",
                bottlenecked, results.size());
    return 0;
}

/**
 * @file
 * Table II: TLP and GPU utilization of all 30 applications on the
 * 6-core/12-thread machine with the GTX 1080 Ti — the paper's
 * headline table, including the execution-time heat map, per-category
 * averages, and the summary statistics quoted in the abstract
 * (suite-average TLP ~3.1; 6 of 30 apps above TLP 4; most apps touch
 * the maximum instantaneous TLP of 12).
 */

#include <cstdio>
#include <iostream>
#include <map>

#include "bench_util.hh"
#include "report/heatmap.hh"

using namespace deskpar;

int
main()
{
    bench::banner("Table II - application TLP and GPU utilization",
                  "Section V-A, Table II");

    apps::RunOptions options = bench::paperRunOptions();

    // All 30 applications x 3 iterations fan out across the
    // SuiteRunner; results come back in suite row order.
    std::vector<apps::SuiteJob> jobs;
    for (const auto &entry : apps::tableTwoSuite())
        jobs.push_back(apps::suiteJob(entry.id, options));
    std::vector<apps::AppRunResult> results =
        bench::runSuiteParallel(jobs);

    report::TextTable table({"Category", "Application",
                             "Execution time c0..c12", "TLP",
                             "GPU util (%)", "Max conc."});

    struct CategoryStats
    {
        analysis::RunningStat tlp;
        analysis::RunningStat gpu;
    };
    std::map<std::string, CategoryStats> categories;
    analysis::RunningStat suiteTlp;
    unsigned above4 = 0;
    unsigned reachedMax = 0;
    unsigned count = 0;

    std::size_t next = 0;
    for (const auto &entry : apps::tableTwoSuite()) {
        const apps::AppRunResult &result = results[next++];

        const std::string &name = result.agg.app;
        std::string gpu_cell = bench::meanSigma(result.agg.gpuUtil);
        // Star only utilization capped at 100% by packet overlap
        // (the paper's PhoenixMiner footnote).
        if (result.agg.gpuOverlapped &&
            result.agg.gpuUtil.mean() > 99.9) {
            gpu_cell = "*" + gpu_cell;
        }

        table.row()
            .cell(entry.category)
            .cell(name)
            .cell(report::heatmapRow(result.agg.meanC))
            .cell(bench::meanSigma(result.agg.tlp, 2))
            .cell(gpu_cell)
            .cell(result.agg.maxConcurrency.mean(), 0);

        auto &cat = categories[entry.category];
        cat.tlp.add(result.tlp());
        cat.gpu.add(result.gpuUtil());
        suiteTlp.add(result.tlp());
        if (result.tlp() > 4.0)
            ++above4;
        if (result.agg.maxConcurrency.max() >=
            options.config.activeLogicalCpus()) {
            ++reachedMax;
        }
        ++count;
    }

    table.print(std::cout);
    std::printf("\n%s\n", report::heatmapLegend().c_str());
    std::printf("* two packets were simultaneously executing on the "
                "GPU throughout the experiment\n");

    std::printf("\nPer-category averages:\n");
    report::TextTable cats({"Category", "Avg TLP", "Avg GPU (%)"});
    for (const auto &[name, stats] : categories) {
        cats.row()
            .cell(name)
            .cell(stats.tlp.mean(), 1)
            .cell(stats.gpu.mean(), 1);
    }
    cats.print(std::cout);

    std::printf("\nSummary: suite-average TLP = %.1f (paper: 3.1); "
                "%u of %u apps above TLP 4 (paper: 6 of 30);\n"
                "%u of %u apps reached the maximum instantaneous "
                "TLP of %u during execution.\n",
                suiteTlp.mean(), above4, count, reachedMax, count,
                options.config.activeLogicalCpus());
    return 0;
}

/**
 * @file
 * Query-fusion microbenchmark: a 16-query batch over one recorded
 * HandBrake trace, evaluated two ways — the straight-line reference
 * (analysis::legacy::runQueries from tests/reference/, one
 * independent full-trace sweep per row) and the fusing planner
 * (Session::query, one cswitch pass per distinct filter, timed cold
 * on a fresh Session per batch). Fails unless the two produce
 * bit-identical rows (also across 1/2/7 worker threads) and prints
 * the speedup. It also times the batch on a Session that already
 * holds its columns (the resident case).
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "reference/analysis_legacy.hh"

using namespace deskpar;

namespace {

/**
 * The measured batch: 16 queries over three distinct cswitch
 * filters (the app, system-wide, the app on CPUs 0-3), mixing
 * whole-window folds with bucketed series so the sequential baseline
 * pays one sweep per row while the planner pays one pass per filter.
 */
std::vector<analysis::Query>
buildBatch(const trace::PidSet &app)
{
    using analysis::Query;
    using analysis::QueryGroupBy;
    using analysis::QueryMetric;

    auto make = [](QueryMetric m, trace::PidSet pids,
                   QueryGroupBy g = QueryGroupBy::None,
                   sim::SimDuration bucket = 0) {
        Query q;
        q.metric = m;
        q.filter.pids = std::move(pids);
        q.groupBy = g;
        q.bucket = bucket;
        return q;
    };

    std::vector<Query> batch;
    // Filter A: the application's pid set.
    batch.push_back(make(QueryMetric::Tlp, app));
    batch.push_back(make(QueryMetric::BusyFraction, app));
    batch.push_back(make(QueryMetric::Tlp, app,
                         QueryGroupBy::TimeBucket, sim::msec(250)));
    batch.push_back(make(QueryMetric::Tlp, app,
                         QueryGroupBy::TimeBucket, sim::msec(100)));
    batch.push_back(make(QueryMetric::BusyFraction, app,
                         QueryGroupBy::TimeBucket, sim::sec(1.0)));
    batch.push_back(make(QueryMetric::ContextSwitchRate, app));
    batch.push_back(make(QueryMetric::ContextSwitchRate, app,
                         QueryGroupBy::TimeBucket, sim::msec(500)));
    batch.push_back(make(QueryMetric::DurationHistogram, app));
    batch.push_back(make(QueryMetric::Tlp, app, QueryGroupBy::Phase));
    batch.push_back(make(QueryMetric::GpuOccupancy, app));
    batch.push_back(make(QueryMetric::GpuOccupancy, app,
                         QueryGroupBy::GpuEngine));
    // Filter B: system-wide.
    batch.push_back(make(QueryMetric::Tlp, {}));
    batch.push_back(make(QueryMetric::BusyFraction, {}));
    batch.push_back(make(QueryMetric::ContextSwitchRate, {}));
    batch.push_back(make(QueryMetric::DurationHistogram, {}));
    // Filter C: the app narrowed to CPUs 0-3.
    Query masked = make(QueryMetric::Tlp, app);
    masked.filter.cpuMask = 0xF;
    batch.push_back(std::move(masked));
    return batch;
}

/** Field-exact comparison; prints the first difference. */
bool
sameResults(const std::vector<analysis::QueryResult> &a,
            const std::vector<analysis::QueryResult> &b,
            const char *what)
{
    if (a.size() != b.size()) {
        std::fprintf(stderr, "FAIL (%s): %zu vs %zu results\n", what,
                     a.size(), b.size());
        return false;
    }
    for (std::size_t q = 0; q < a.size(); ++q) {
        const auto &ra = a[q].rows;
        const auto &rb = b[q].rows;
        if (ra.size() != rb.size()) {
            std::fprintf(stderr,
                         "FAIL (%s): query %zu has %zu vs %zu rows\n",
                         what, q, ra.size(), rb.size());
            return false;
        }
        for (std::size_t r = 0; r < ra.size(); ++r) {
            const analysis::QueryRow &x = ra[r];
            const analysis::QueryRow &y = rb[r];
            if (x.key != y.key || x.t0 != y.t0 || x.t1 != y.t1 ||
                x.pid != y.pid || x.tid != y.tid ||
                x.value != y.value || x.histogram != y.histogram) {
                std::fprintf(
                    stderr,
                    "FAIL (%s): query %zu row %zu differs: key "
                    "'%s'/'%s' value %.17g/%.17g\n",
                    what, q, r, x.key.c_str(), y.key.c_str(), x.value,
                    y.value);
                return false;
            }
        }
    }
    return true;
}

} // namespace

int
main()
{
    bench::banner(
        "Query fusion - 16-query batch, fused vs sequential",
        "analysis methodology of Sections III and V");

    apps::RunOptions options = bench::paperRunOptions();

    std::vector<apps::SuiteJob> jobs = {
        apps::suiteJob("handbrake", options)};
    apps::AppRunResult result =
        std::move(bench::runSuiteParallel(jobs).front());

    const trace::TraceBundle &bundle = result.lastBundle;
    std::vector<analysis::Query> batch = buildBatch(result.lastPids);

    std::printf("trace: %zu cswitches, %zu gpu packets, %.1f s, "
                "%u cpus; batch: %zu queries\n",
                bundle.cswitches.size(), bundle.gpuPackets.size(),
                sim::toSeconds(bundle.duration()),
                bundle.numLogicalCpus, batch.size());

    analysis::Session session(bundle);
    std::printf("\n%s\n",
                session.plan(batch).explain().str().c_str());

    // Min-of-N wall times; the same-shaped inner repeat keeps the
    // timed region well above clock resolution on small fast-mode
    // traces.
    constexpr int kReps = 5;
    constexpr int kInner = 8;
    using Clock = std::chrono::steady_clock;

    std::vector<analysis::QueryResult> reference;
    double bestSeq = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        Clock::time_point start = Clock::now();
        for (int i = 0; i < kInner; ++i) {
            auto r = analysis::legacy::runQueries(bundle, batch);
            if (rep == 0 && i == 0)
                reference = std::move(r);
        }
        std::chrono::duration<double> wall = Clock::now() - start;
        bestSeq = std::min(bestSeq, wall.count());
    }

    // Each fused batch runs on a fresh Session: a resident Session
    // keeps the columns its first batch built, so reusing one would
    // time column reads, not the cold column build.
    std::vector<analysis::QueryResult> fused;
    double bestFused = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        Clock::time_point start = Clock::now();
        for (int i = 0; i < kInner; ++i) {
            // Compile cost is part of the fused path.
            analysis::Session cold(bundle);
            auto r = cold.plan(batch).run();
            if (rep == 0 && i == 0)
                fused = std::move(r);
        }
        std::chrono::duration<double> wall = Clock::now() - start;
        bestFused = std::min(bestFused, wall.count());
    }

    // The resident case, timed apart so the speedup keeps
    // comparing cold builds: the batch again on a Session that
    // already holds every column it needs (what `deskpar serve`
    // answers a repeated request from). Row evaluation alone is
    // several times faster, so it repeats more to stay measurable.
    constexpr int kResidentInner = 8 * kInner;
    session.query(batch);
    std::vector<analysis::QueryResult> warm;
    double bestWarm = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        Clock::time_point start = Clock::now();
        for (int i = 0; i < kResidentInner; ++i) {
            auto r = session.plan(batch).run();
            if (rep == 0 && i == 0)
                warm = std::move(r);
        }
        std::chrono::duration<double> wall = Clock::now() - start;
        bestWarm = std::min(bestWarm, wall.count());
    }

    if (!sameResults(reference, fused, "fused vs sequential") ||
        !sameResults(reference, warm, "resident vs sequential"))
        return 1;
    analysis::QueryPlan plan = session.plan(batch);
    if (!sameResults(fused, plan.run(1), "1 thread") ||
        !sameResults(fused, plan.run(2), "2 threads") ||
        !sameResults(fused, plan.run(7), "7 threads"))
        return 1;
    std::printf("results: fused == sequential reference, "
                "bit-identical at 1/2/7 threads\n");

    double speedup = bestSeq / bestFused;
    std::printf("\nsequential %.3f ms/batch, fused %.3f ms/batch, "
                "speedup %.2fx; resident %.3f ms/batch\n",
                bestSeq * 1e3 / kInner, bestFused * 1e3 / kInner,
                speedup, bestWarm * 1e3 / kResidentInner);
    return 0;
}

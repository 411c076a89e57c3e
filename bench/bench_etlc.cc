/**
 * @file
 * .etlc container microbenchmark over the Table II suite corpus:
 * packs every retained trace as v3 .etl and block-compressed .etlc,
 * reports the corpus compression ratio, then times a cold open
 * (mmap + full ingest + index warm) against a warm reopen from the
 * .dpidx index cache. Warm sessions are checked against their cold
 * twins (TLP and frame stats must be bit-identical).
 * DESKPAR_ETLC_MIN_RATIO (default 2) sets the corpus ratio floor —
 * the run fails below it. The ratio is a deterministic property of
 * the format (2.2x measured); see DESIGN.md section 15 for why the
 * simulator corpus entropy caps it well below real ETW captures.
 * The cold/warm open times are printed, not gated: their ratio
 * swings with the host.
 */

#include <algorithm>
#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <vector>

#include "analysis/index_cache.hh"
#include "bench_util.hh"
#include "trace/etl.hh"
#include "trace/etlc.hh"
#include "trace/merge.hh"

using namespace deskpar;

namespace {

namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

double
envFloor(const char *name, double fallback)
{
    if (const char *value = std::getenv(name))
        return std::atof(value);
    return fallback;
}

struct PackedTrace
{
    std::string label;
    fs::path etl;
    fs::path etlc;
    double tlp = 0.0;
    double avgFps = 0.0;
};

} // namespace

int
main()
{
    bench::banner(
        ".etlc container - pack ratio and warm-reopen latency",
        "trace-collection methodology of Section II");

    apps::RunOptions options = bench::paperRunOptions();

    std::vector<apps::SuiteJob> jobs;
    for (const apps::SuiteEntry &entry : apps::tableTwoSuite())
        jobs.push_back(apps::suiteJob(entry.id, options));
    std::vector<apps::AppRunResult> results =
        bench::runSuiteParallel(jobs);

    fs::path dir = fs::temp_directory_path() / "deskpar_bench_etlc";
    fs::create_directories(dir);

    // Pack: write each trace as the v3 baseline and as .etlc.
    std::vector<PackedTrace> corpus;
    std::uintmax_t etlBytes = 0;
    std::uintmax_t etlcBytes = 0;
    for (std::size_t i = 0; i < results.size(); ++i) {
        // Live simulation bundles are not time-ordered; both
        // writers demand the canonical sort.
        trace::TraceBundle bundle = results[i].lastBundle;
        trace::sortBundle(bundle);
        PackedTrace packed;
        packed.label = jobs[i].label;
        packed.etl = dir / (packed.label + ".etl");
        packed.etlc = dir / (packed.label + ".etlc");
        trace::writeEtl(bundle, packed.etl.string());
        trace::writeEtlc(bundle, packed.etlc.string());
        etlBytes += fs::file_size(packed.etl);
        etlcBytes += fs::file_size(packed.etlc);
        corpus.push_back(std::move(packed));
    }

    double ratio = etlcBytes
                       ? double(etlBytes) / double(etlcBytes)
                       : 0.0;
    std::printf("corpus: %zu traces, .etl %.2f MiB -> .etlc "
                "%.2f MiB (%.2fx)\n",
                corpus.size(), double(etlBytes) / (1 << 20),
                double(etlcBytes) / (1 << 20), ratio);

    // Cold: ingest every .etlc with the cache disabled. min-of-N
    // over the whole corpus keeps the timed region large.
    constexpr int kReps = 3;
    analysis::OpenOptions cold;
    cold.useCache = false;
    cold.refreshCache = false;
    double coldWall = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        Clock::time_point start = Clock::now();
        for (PackedTrace &packed : corpus) {
            analysis::OpenResult opened = analysis::openSession(
                packed.etlc.string(), cold);
            if (!opened.report.ok() || opened.warm) {
                std::fprintf(stderr, "FAIL: cold open of %s: %s\n",
                             packed.label.c_str(),
                             opened.report.summary().c_str());
                return 1;
            }
            if (rep == 0) {
                packed.tlp = opened.session
                                 ->concurrency(trace::PidSet{})
                                 .tlp();
                packed.avgFps =
                    opened.session->frameStats(trace::PidSet{}).avgFps;
            }
        }
        coldWall = std::min(
            coldWall,
            std::chrono::duration<double>(Clock::now() - start)
                .count());
    }

    // Seed the caches once (untimed), then time warm reopens and
    // cross-check each against its cold twin.
    for (const PackedTrace &packed : corpus) {
        analysis::OpenResult opened =
            analysis::openSession(packed.etlc.string());
        if (!opened.wroteCache && !opened.warm) {
            std::fprintf(stderr, "FAIL: no cache written for %s\n",
                         packed.label.c_str());
            return 1;
        }
    }
    double warmWall = 1e300;
    for (int rep = 0; rep < kReps; ++rep) {
        Clock::time_point start = Clock::now();
        for (const PackedTrace &packed : corpus) {
            analysis::OpenResult opened =
                analysis::openSession(packed.etlc.string());
            if (!opened.warm) {
                std::fprintf(stderr,
                             "FAIL: %s did not open warm\n",
                             packed.label.c_str());
                return 1;
            }
            double tlp = opened.session
                             ->concurrency(trace::PidSet{})
                             .tlp();
            double fps = opened.session->frameStats(trace::PidSet{}).avgFps;
            bool sameTlp =
                tlp == packed.tlp || (tlp != tlp &&
                                      packed.tlp != packed.tlp);
            bool sameFps =
                fps == packed.avgFps ||
                (fps != fps && packed.avgFps != packed.avgFps);
            if (!sameTlp || !sameFps) {
                std::fprintf(stderr,
                             "FAIL: warm %s diverges (tlp "
                             "%.17g/%.17g, fps %.17g/%.17g)\n",
                             packed.label.c_str(), tlp, packed.tlp,
                             fps, packed.avgFps);
                return 1;
            }
        }
        warmWall = std::min(
            warmWall,
            std::chrono::duration<double>(Clock::now() - start)
                .count());
    }

    double speedup = warmWall > 0.0 ? coldWall / warmWall : 0.0;
    std::printf("open: cold %.3f ms, warm %.3f ms (%.1fx) over %zu "
                "traces\n",
                coldWall * 1e3, warmWall * 1e3, speedup,
                corpus.size());

    int status = 0;
    double minRatio = envFloor("DESKPAR_ETLC_MIN_RATIO", 2.0);
    if (ratio < minRatio) {
        std::fprintf(stderr,
                     "FAIL: compression ratio %.2fx below the "
                     "%.2fx floor\n",
                     ratio, minRatio);
        status = 1;
    }
    return status;
}

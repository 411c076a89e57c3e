/**
 * @file
 * Sweep-engine throughput benchmark: scenarios/sec of a seeded
 * corpus sweep (apps/sweep.hh) through the full path — scenario
 * generation, simulation, metric reduction, shard writes, checkpoint
 * updates, merge — at the runner's default job count, plus a
 * single-thread pass for the per-core figure.
 *
 * Also re-checks the engine's headline contract inline: the
 * DESKPAR_JOBS=1 and default-jobs merged outputs must be
 * byte-identical (cheap here, and a bench that measures a broken
 * engine would be worse than useless).
 *
 * When DESKPAR_SWEEP_MIN_RATE is set, it fails if parallel
 * scenarios/sec lands below that floor.
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>

#include "apps/sweep.hh"
#include "bench_util.hh"

using namespace deskpar;

namespace {

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream buffer;
    buffer << in.rdbuf();
    return buffer.str();
}

/** Fresh-directory sweep; returns the merged output path. */
std::string
runOnce(const std::filesystem::path &dir, std::uint32_t count,
        double seconds, unsigned threads)
{
    std::filesystem::remove_all(dir);
    apps::SweepOptions options;
    options.seed = 2026;
    options.count = count;
    options.outDir = dir.string();
    options.seconds = seconds;
    options.shardSize = 8;
    options.threads = threads;
    apps::SweepReport report = apps::runSweep(options);
    return report.mergedPath;
}

} // namespace

int
main()
{
    bench::banner("Sweep engine - corpus scenarios per second",
                  "corpus-scale extension of the Table II protocol");

    std::uint32_t count = 96;
    double seconds = 1.0;
    if (const char *fast = std::getenv("DESKPAR_FAST");
        fast && fast[0] == '1') {
        count = 32;
        seconds = 0.5;
    }

    std::filesystem::path base =
        std::filesystem::temp_directory_path() /
        "deskpar_bench_sweep";
    std::filesystem::path dirSerial = base / "serial";
    std::filesystem::path dirParallel = base / "parallel";

    std::printf("%u scenarios x %.1f simulated s, shard size 8\n\n",
                count, seconds);

    double wallSerial = bench::minWallSeconds(
        2, [&]() { runOnce(dirSerial, count, seconds, 1); });
    double wallParallel = bench::minWallSeconds(2, [&]() {
        runOnce(dirParallel, count, seconds, 0);
    });

    std::string mergedSerial =
        slurp((dirSerial / "sweep.jsonl").string());
    std::string mergedParallel =
        slurp((dirParallel / "sweep.jsonl").string());
    if (mergedSerial.empty() || mergedSerial != mergedParallel) {
        std::fprintf(stderr,
                     "FAIL: merged sweep output differs between 1 "
                     "thread and default jobs\n");
        return 1;
    }
    std::printf("determinism: serial and parallel sweep.jsonl "
                "byte-identical (%zu bytes)\n",
                mergedSerial.size());

    double rateSerial = count / wallSerial;
    double rateParallel = count / wallParallel;
    std::printf("1 thread:     %7.1f scenarios/s (%.3f s)\n",
                rateSerial, wallSerial);
    std::printf("default jobs: %7.1f scenarios/s (%.3f s)\n",
                rateParallel, wallParallel);

    std::filesystem::remove_all(base);

    if (const char *env = std::getenv("DESKPAR_SWEEP_MIN_RATE")) {
        double floor = std::strtod(env, nullptr);
        if (rateParallel < floor) {
            std::fprintf(stderr,
                         "FAIL: %.1f scenarios/s is below the %.1f "
                         "floor\n",
                         rateParallel, floor);
            return 1;
        }
        std::printf("PASS: %.1f scenarios/s >= %.1f floor\n",
                    rateParallel, floor);
    }
    return 0;
}

#include "apps/sweep.hh"

#include <algorithm>
#include <atomic>
#include <cstdio>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <mutex>
#include <sstream>
#include <string_view>
#include <utility>

#include "apps/harness.hh"
#include "apps/registry.hh"
#include "sim/cpu.hh"
#include "sim/logging.hh"
#include "sim/machine.hh"
#include "sim/parallel.hh"
#include "sim/rng.hh"
#include "trace/container.hh"
#include "trace/etlc.hh"

namespace deskpar::apps {
namespace {

namespace fs = std::filesystem;

/** Checkpoint container version (bump on layout change). */
constexpr std::uint64_t kCheckpointVersion = 1;

/** Magic: "DPSWP" + version byte + two reserved zeros. */
constexpr char kCheckpointMagic[8] = {'D', 'P', 'S', 'W',
                                      'P', 1,   0,   0};

/** Core-count axis of the sweep (the paper's 4/8/16/32 extension). */
constexpr unsigned kCoreCounts[] = {4, 8, 16, 32};

/** Scheduler-policy presets: a name and its timeslice. */
struct PolicyPreset
{
    const char *name;
    sim::SimDuration quantum;
};

const PolicyPreset kPolicies[] = {
    {"interactive", sim::msec(5)},
    {"balanced", sim::msec(10)},
    {"batch", sim::msec(30)},
    {"throughput", sim::msec(60)},
};

/**
 * The sweep's synthetic 2026-class package: 32 SMT cores so every
 * sampled core count fits with and without SMT. Clocks follow the
 * contemporary desktop ladder; the exact values only shift the
 * simulated operating points, not any sweep mechanics.
 */
sim::CpuSpec
sweepCpuSpec()
{
    sim::CpuSpec spec;
    spec.model = "Synthetic 2026 desktop (32C/64T)";
    spec.physicalCores = 32;
    spec.threadsPerCore = 2;
    spec.baseClockGhz = 3.2;
    spec.turboClockGhz = 5.5;
    spec.llcMiB = 64;
    spec.ramGiB = 64;
    spec.tdpWatts = 250.0;
    spec.idleWatts = 10.0;
    return spec;
}

/** Registry ids in a stable (sorted) order. */
const std::vector<std::string> &
sortedWorkloadIds()
{
    static const std::vector<std::string> ids = [] {
        std::vector<std::string> v = workloadIds();
        std::sort(v.begin(), v.end());
        return v;
    }();
    return ids;
}

std::uint32_t
shardCount(const SweepOptions &options)
{
    return (options.count + options.shardSize - 1) /
           options.shardSize;
}

sim::SimDuration
sweepDuration(const SweepOptions &options)
{
    return sim::sec(options.seconds);
}

void
validateOptions(const SweepOptions &options)
{
    if (options.count == 0)
        fatal("sweep: --count must be positive");
    if (options.shardSize == 0)
        fatal("sweep: shard size must be positive");
    if (options.outDir.empty())
        fatal("sweep: --out directory required");
    if (options.seconds <= 0.0)
        fatal("sweep: --seconds must be positive");
}

/** Write @p bytes to @p path atomically (tmp + rename). */
void
writeFileAtomic(const fs::path &path, const std::string &bytes)
{
    fs::path tmp = path;
    tmp += ".tmp";
    {
        std::ofstream out(tmp, std::ios::binary | std::ios::trunc);
        out.write(bytes.data(),
                  static_cast<std::streamsize>(bytes.size()));
        if (!out)
            fatal("sweep: cannot write " + tmp.string());
    }
    std::error_code ec;
    fs::rename(tmp, path, ec);
    if (ec)
        fatal("sweep: cannot rename " + tmp.string() + ": " +
              ec.message());
}

/** Whole file as a string; false if it does not exist / unreadable. */
bool
readFile(const fs::path &path, std::string &out)
{
    std::ifstream in(path, std::ios::binary);
    if (!in)
        return false;
    std::ostringstream buffer;
    buffer << in.rdbuf();
    out = buffer.str();
    return true;
}

/** Scenario index range [first, last) of @p shard. */
std::pair<std::uint32_t, std::uint32_t>
shardRange(const SweepOptions &options, std::uint32_t shard)
{
    std::uint32_t first = shard * options.shardSize;
    std::uint32_t last = first + options.shardSize;
    if (last > options.count)
        last = options.count;
    return {first, last};
}

/**
 * Content-based shard validation: the file must hold exactly one
 * line per scenario of the shard, each starting with the
 * regenerated config prefix of its row. Trusting content instead of
 * the checkpoint is what makes resume immune to checkpoint
 * corruption: a damaged checkpoint can only cost re-validation,
 * never completed work, and a damaged shard file can only cost that
 * shard.
 */
bool
shardFileValid(const SweepOptions &options, std::uint32_t shard)
{
    std::string bytes;
    if (!readFile(fs::path(options.outDir) / shardFileName(shard),
                  bytes))
        return false;
    if (bytes.empty() || bytes.back() != '\n')
        return false;

    auto [first, last] = shardRange(options, shard);
    std::string_view rest = bytes;
    for (std::uint32_t index = first; index < last; ++index) {
        std::size_t eol = rest.find('\n');
        if (eol == std::string_view::npos)
            return false;
        std::string_view line = rest.substr(0, eol);
        rest.remove_prefix(eol + 1);
        std::string prefix =
            scenarioRowPrefix(scenarioAt(options.seed, index));
        if (line.size() <= prefix.size() ||
            line.compare(0, prefix.size(), prefix) != 0 ||
            line.back() != '}')
            return false;
    }
    return rest.empty();
}

} // namespace

ScenarioConfig
scenarioAt(std::uint64_t seed, std::uint32_t index)
{
    // One splitmix-derived stream per scenario: fork() mixes
    // (seed, index) through SplitMix64, so neighboring indices get
    // decorrelated streams and the stream seed doubles as the
    // scenario's machine seed.
    sim::Rng stream = sim::Rng(seed).fork(std::uint64_t(index));

    ScenarioConfig config;
    config.index = index;
    config.seed = stream.baseSeed();
    const std::vector<std::string> &ids = sortedWorkloadIds();
    config.app = ids[stream.raw() % ids.size()];
    config.cores = kCoreCounts[stream.raw() % std::size(kCoreCounts)];
    config.smt = (stream.raw() & 1) != 0;
    const PolicyPreset &policy =
        kPolicies[stream.raw() % std::size(kPolicies)];
    config.policy = policy.name;
    config.quantum = policy.quantum;
    return config;
}

ScenarioMetrics
runScenario(const ScenarioConfig &config, double seconds)
{
    RunOptions options;
    options.config.cpu = sweepCpuSpec();
    options.config.activeCpus = config.cores;
    options.config.smtEnabled = config.smt;
    options.config.quantum = config.quantum;
    options.iterations = 1;
    options.seedBase = config.seed;
    options.duration = sim::sec(seconds);

    WorkloadPtr model = makeWorkload(config.app);
    if (!model)
        fatal("sweep: unknown workload '" + config.app + "'");
    IterationOutput out = runIteration(*model, options, 0);

    ScenarioMetrics metrics;
    metrics.tlp = out.result.metrics.tlp();
    metrics.gpuUtilPercent = out.result.metrics.gpuUtilPercent();
    metrics.avgFps = out.result.metrics.frames.avgFps;
    metrics.contextSwitches = out.result.sched.contextSwitches;
    metrics.traceEvents = out.bundle.totalEvents();
    return metrics;
}

std::string
scenarioRowPrefix(const ScenarioConfig &config)
{
    char buf[256];
    std::snprintf(buf, sizeof(buf),
                  "{\"index\":%u,\"app\":\"%s\",\"cores\":%u,"
                  "\"smt\":%u,\"policy\":\"%s\",\"quantum_ns\":%llu,"
                  "\"seed\":%llu",
                  config.index, config.app.c_str(), config.cores,
                  config.smt ? 1u : 0u, config.policy.c_str(),
                  static_cast<unsigned long long>(config.quantum),
                  static_cast<unsigned long long>(config.seed));
    return buf;
}

std::string
scenarioRow(const ScenarioConfig &config,
            const ScenarioMetrics &metrics)
{
    // %.17g round-trips the exact doubles: rows must be byte-stable
    // across thread counts and resume boundaries.
    char buf[256];
    std::snprintf(
        buf, sizeof(buf),
        ",\"tlp\":%.17g,\"gpu_util\":%.17g,\"avg_fps\":%.17g,"
        "\"cswitches\":%llu,\"events\":%llu}",
        metrics.tlp, metrics.gpuUtilPercent, metrics.avgFps,
        static_cast<unsigned long long>(metrics.contextSwitches),
        static_cast<unsigned long long>(metrics.traceEvents));
    return scenarioRowPrefix(config) + buf;
}

std::string
shardFileName(std::uint32_t shard)
{
    char buf[32];
    std::snprintf(buf, sizeof(buf), "shard-%04u.jsonl", shard);
    return buf;
}

const char *
checkpointFileName()
{
    return "sweep.ckpt";
}

std::string
encodeCheckpoint(const SweepOptions &options,
                 const std::vector<bool> &completed)
{
    std::string body;
    trace::putVarint(body, kCheckpointVersion);
    trace::putVarint(body, options.seed);
    trace::putVarint(body, options.count);
    trace::putVarint(body, options.shardSize);
    trace::putVarint(body, static_cast<std::uint64_t>(
                               sweepDuration(options)));
    trace::putVarint(body, completed.size());
    std::string bitmap((completed.size() + 7) / 8, '\0');
    for (std::size_t i = 0; i < completed.size(); ++i) {
        if (completed[i])
            bitmap[i / 8] |= static_cast<char>(1u << (i % 8));
    }
    body += bitmap;

    std::string out(kCheckpointMagic, sizeof(kCheckpointMagic));
    std::uint32_t crc = trace::crc32c(body);
    for (int shift = 0; shift < 32; shift += 8)
        out.push_back(static_cast<char>((crc >> shift) & 0xff));
    out += body;
    return out;
}

bool
decodeCheckpoint(const std::string &bytes,
                 const SweepOptions &options,
                 std::vector<bool> &completed)
{
    completed.clear();
    constexpr std::size_t kHeader = sizeof(kCheckpointMagic) + 4;
    if (bytes.size() < kHeader)
        return false;
    if (bytes.compare(0, sizeof(kCheckpointMagic), kCheckpointMagic,
                      sizeof(kCheckpointMagic)) != 0)
        return false;
    std::uint32_t stored = 0;
    for (int i = 0; i < 4; ++i) {
        stored |= static_cast<std::uint32_t>(
                      static_cast<unsigned char>(
                          bytes[sizeof(kCheckpointMagic) + i]))
                  << (8 * i);
    }
    std::string body = bytes.substr(kHeader);
    if (trace::crc32c(body) != stored)
        return false;

    std::size_t pos = 0;
    std::uint64_t version = 0, seed = 0, count = 0, shardSize = 0;
    std::uint64_t duration = 0, shards = 0;
    trace::ParseError err;
    if (!trace::getBounded(body, pos, body.size(), version, err) ||
        !trace::getBounded(body, pos, body.size(), seed, err) ||
        !trace::getBounded(body, pos, body.size(), count, err) ||
        !trace::getBounded(body, pos, body.size(), shardSize, err) ||
        !trace::getBounded(body, pos, body.size(), duration, err) ||
        !trace::getBounded(body, pos, body.size(), shards, err))
        return false;
    if (version != kCheckpointVersion)
        return false;
    // Identity: a checkpoint from different sweep parameters is
    // stale, exactly like a .dpidx whose trace changed underneath.
    if (seed != options.seed || count != options.count ||
        shardSize != options.shardSize ||
        duration !=
            static_cast<std::uint64_t>(sweepDuration(options)))
        return false;
    if (shards != shardCount(options))
        return false;
    if (body.size() - pos != (shards + 7) / 8)
        return false;

    completed.resize(shards, false);
    for (std::uint64_t i = 0; i < shards; ++i) {
        unsigned char byte = static_cast<unsigned char>(
            body[pos + i / 8]);
        completed[i] = (byte >> (i % 8)) & 1;
    }
    return true;
}

SweepReport
runSweep(const SweepOptions &options)
{
    validateOptions(options);
    fs::create_directories(options.outDir);
    fs::path dir(options.outDir);

    std::uint32_t shards = shardCount(options);
    std::vector<bool> completed(shards, false);

    SweepReport report;
    report.scenariosTotal = options.count;
    report.shardsTotal = shards;

    if (options.resume) {
        // The checkpoint is consulted for a fast confirmation but
        // every claimed shard is revalidated against regenerated
        // configs; a corrupt/stale checkpoint therefore degrades to
        // a full rescan, never to lost or trusted-but-wrong work.
        std::string bytes;
        std::vector<bool> claimed;
        if (readFile(dir / checkpointFileName(), bytes))
            decodeCheckpoint(bytes, options, claimed);
        for (std::uint32_t s = 0; s < shards; ++s) {
            if (shardFileValid(options, s)) {
                completed[s] = true;
                ++report.shardsReused;
            }
        }
    }

    std::mutex progressMutex;
    auto writeCheckpoint = [&] {
        writeFileAtomic(dir / checkpointFileName(),
                        encodeCheckpoint(options, completed));
    };
    writeCheckpoint();

    std::vector<std::uint32_t> missing;
    for (std::uint32_t s = 0; s < shards; ++s) {
        if (!completed[s])
            missing.push_back(s);
    }

    std::atomic<bool> stopped{false};
    std::atomic<std::uint32_t> doneThisRun{0};

    unsigned threads =
        options.threads ? options.threads : sim::resolveJobs();
    sim::parallelFor(threads, missing.size(), [&](std::size_t task) {
        if (stopped.load(std::memory_order_relaxed))
            return;
        std::uint32_t shard = missing[task];
        auto [first, last] = shardRange(options, shard);
        std::string content;
        for (std::uint32_t index = first; index < last; ++index) {
            ScenarioConfig config =
                scenarioAt(options.seed, index);
            ScenarioMetrics metrics =
                runScenario(config, options.seconds);
            content += scenarioRow(config, metrics);
            content += '\n';
        }
        writeFileAtomic(dir / shardFileName(shard), content);
        std::uint32_t done;
        {
            std::lock_guard<std::mutex> lock(progressMutex);
            completed[shard] = true;
            writeCheckpoint();
            report.scenariosRun += last - first;
            done = doneThisRun.fetch_add(
                       1, std::memory_order_relaxed) +
                   1;
        }
        if (options.stopAfterShards &&
            done >= options.stopAfterShards)
            stopped.store(true, std::memory_order_relaxed);
    });

    if (stopped.load(std::memory_order_relaxed)) {
        report.complete = false;
        return report;
    }

    // Merge in shard order: byte-identical regardless of which
    // worker produced which shard, or which run produced it.
    std::string merged;
    for (std::uint32_t s = 0; s < shards; ++s) {
        std::string bytes;
        if (!readFile(dir / shardFileName(s), bytes))
            fatal("sweep: missing shard file " + shardFileName(s));
        merged += bytes;
    }
    fs::path mergedPath = dir / "sweep.jsonl";
    writeFileAtomic(mergedPath, merged);
    report.mergedPath = mergedPath.string();
    report.complete = true;
    return report;
}

} // namespace deskpar::apps

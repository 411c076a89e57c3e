/**
 * @file
 * deskpar — the command-line front end of the toolkit.
 *
 *   deskpar list
 *       List every workload in the Table II suite.
 *
 *   deskpar run <id> [options]
 *       Run one workload and print its metrics.
 *
 *   deskpar sweep <id> --cores 4,8,12 [options]
 *       Core-scaling sweep (the Figure 4 methodology).
 *
 *   deskpar sweep --count N --seed S --out DIR [--resume]
 *           [--seconds X] [--shard-size K] [--jobs N]
 *       Seeded corpus sweep (apps/sweep.hh): N scenarios sampled
 *       from app x cores x SMT x scheduler-policy space, executed
 *       in shards across the work-stealing runner with a resumable
 *       checkpoint. Same seed => byte-identical sweep.jsonl at any
 *       job count and across --resume boundaries.
 *
 *   deskpar suite [options]
 *       The full Table II suite, one row per application.
 *
 *   deskpar threads <id> [options]
 *       Per-thread busy-time breakdown (WPA's by-thread view).
 *
 *   deskpar legacy [options]
 *       The 2010 Blake et al. suite on its contemporary machine.
 *
 *   deskpar report <prefix> [options]
 *       Run the full suite and write <prefix>.md (markdown results
 *       table) and <prefix>.jsonl (one JSON record per application)
 *       — a reproducibility dossier.
 *
 *   deskpar replay <file...> [--app PREFIX] [--lenient-traces]
 *           [--json]
 *       Re-analyze saved traces (.etl, .etlc or CPU Usage .csv),
 *       each as the analysis::Service analyze request the serve
 *       analyze op answers, in parallel, printed in argument order.
 *       A corrupt or missing file fails only its own row ("deskpar:
 *       <error>" on stderr). --lenient-traces analyzes what survives
 *       malformed records instead ("deskpar: degraded ingest: ...").
 *       Either failure exits 1. --json emits one analyze document
 *       per file (JSONL), byte-identical to the serve analyze op's.
 *
 *   deskpar pack <trace> [-o OUT] [--verify] [--index] [--jobs N]
 *           [--lenient-traces]
 *       Convert a .etl or CPU-Usage .csv trace to the block-
 *       compressed columnar .etlc container (trace/etlc.hh) and
 *       print the size ratio. The trace is packed as every reader
 *       leaves it (trace::canonicalize): a CSV's rows in time order,
 *       with the CPU count and window the rows imply written into
 *       the header. An OUT ending in .csv is refused (every reader
 *       takes that name for CSV text). --verify re-decodes the
 *       packed file the way every command opens it and cross-checks
 *       every analyzer output against the source (exit 1 on any
 *       mismatch); --index additionally writes the .dpidx spill of
 *       the built TraceIndex next to the output so later opens skip
 *       ingest entirely (analysis/index_cache.hh).
 *
 *   deskpar stats <file...> [--app PREFIX] [--lenient-traces]
 *           [--stats-json FILE] [--selftrace FILE]
 *       Replay (the same loop and table) with self-tracing on: the
 *       pipeline's own spans are collected, reported as JSON,
 *       serialized as a DeskPar .etl, and re-ingested so the toolkit
 *       computes the TLP of its own run (see src/obs/).
 *
 *   deskpar query <file> [--json] [--explain] [--jobs N]
 *           [--lenient-traces] <spec>...
 *       Batch metric queries over a saved trace, compiled into one
 *       fused pass per distinct filter (analysis/query_plan.hh).
 *       Each spec is metric[/key=value]..., e.g.
 *         tlp/app=handbrake
 *         busy/pids=5,6/t0=1.5/t1=20/cpus=0-3
 *         gpu/by=engine      csrate/by=thread
 *         dhist/app=chrome   tlp/by=bucket:250ms
 *       --explain prints the fused plan (distinct filters, column
 *       passes, metrics per pass) before running; --json emits the
 *       versioned query document (schema 1).
 *
 *   deskpar bottlenecks <file> [--json] [--app PREFIX] [--top N]
 *           [--lenient-traces]
 *       Wakeup-chain serialization-bottleneck report
 *       (analysis/blocking.hh): per-thread ready-queue waits
 *       (victims), time others spent blocked behind each thread
 *       (culprits), the hottest wakeup edges, the critical path,
 *       and the bottleneck-limited vs structurally-serial
 *       classification. --top caps each ranking section.
 *
 *   deskpar serve <socket> [--workers N] [--cache-mb MB]
 *           [--request-jobs N]
 *       Resident analysis daemon (src/serve/): hot traces stay in a
 *       byte-bounded session cache, requests arrive as newline-
 *       delimited JSON on a local AF_UNIX socket, and repeat
 *       requests against the same file skip ingest entirely.
 *
 *   deskpar client <socket> <op> [args] [options]
 *       One request against a running serve: ping | stats |
 *       shutdown | analyze <trace> | query <trace> <spec>... |
 *       bottlenecks <trace> | frames <trace> | series <trace>
 *       [--kind K --window-ms X] | raw <json-line>. Prints the
 *       result document — byte-identical to the equivalent CLI
 *       --json invocation.
 *
 * The per-command synopses live in kCommands below; usage() renders
 * that table, so help text cannot drift from the dispatcher again.
 *
 * Exit codes are uniform: 0 success, 1 runtime failure (bad trace,
 * failed verify, degraded lenient ingest), 2 usage error (unknown
 * option, malformed number, missing argument).
 *
 * Common options:
 *   --cores N        active CPUs (logical with SMT, physical without)
 *   --no-smt         disable SMT (one hardware thread per core)
 *   --gpu NAME       1080ti | 680 | 285
 *   --iterations N   default 3
 *   --seconds S      simulated seconds per iteration (default 30)
 *   --seed S         seed base (default 42)
 *   --manual         human-operator input instead of automation
 *   --noise X        background-noise intensity (default 0 = off)
 *   --etl FILE       save the last iteration's trace as .etl
 *   --cpu-csv FILE   export the CPU Usage (Precise) CSV
 *   --gpu-csv FILE   export the GPU Utilization CSV
 *   --timeline MS    print an instantaneous-TLP timeline (window MS)
 *   --json           machine-readable output (run subcommand)
 */

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <iostream>
#include <sstream>
#include <string>
#include <vector>

#include "analysis/index_cache.hh"
#include "analysis/power.hh"
#include "analysis/responsiveness.hh"
#include "analysis/service.hh"
#include "analysis/session.hh"
#include "analysis/threads.hh"
#include "analysis/timeseries.hh"
#include "obs/obs.hh"
#include "obs/selftrace.hh"
#include "apps/harness.hh"
#include "apps/legacy.hh"
#include "apps/registry.hh"
#include "apps/runner.hh"
#include "apps/sweep.hh"
#include "report/documents.hh"
#include "report/figure.hh"
#include "report/json.hh"
#include "report/heatmap.hh"
#include "report/table.hh"
#include "serve/client.hh"
#include "serve/json_value.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "sim/parallel.hh"
#include "trace/csv.hh"
#include "trace/diagnostic.hh"
#include "trace/etl.hh"
#include "trace/etlc.hh"
#include "trace/ingest.hh"
#include "trace/io.hh"
#include "trace/merge.hh"

#include "cli_options.hh"

using namespace deskpar;

namespace {

struct CliOptions
{
    apps::RunOptions run;
    std::string etlPath;
    std::string cpuCsvPath;
    std::string gpuCsvPath;
    sim::SimDuration timelineWindow = 0;
    std::vector<unsigned> sweepCores = {4, 8, 12};
    bool json = false;
};

/**
 * The single source of the command surface: main() dispatches on
 * .name and usage() renders .synopsis/.summary, so adding a command
 * here is the whole help-text story.
 */
struct CommandHelp
{
    const char *name;
    const char *synopsis;
    const char *summary;
};

constexpr CommandHelp kCommands[] = {
    {"list", "list", "list every workload in the Table II suite"},
    {"run", "run <id> [options]",
     "run one workload and print its metrics"},
    {"sweep", "sweep <id> --cores 4,8,12 [options]",
     "core-scaling sweep (the Figure 4 methodology)"},
    {"sweep (corpus)",
     "sweep --count N --seed S --out DIR [--resume] "
     "[--seconds X] [--shard-size K] [--jobs N]",
     "seeded corpus sweep: N sampled scenarios, sharded + "
     "resumable, one JSON metric row each"},
    {"suite", "suite [options]",
     "the full Table II suite, one row per application"},
    {"threads", "threads <id> [options]",
     "per-thread busy-time breakdown and power estimate"},
    {"legacy", "legacy [options]",
     "the 2010 Blake et al. suite on its contemporary machine"},
    {"report", "report <prefix> [options]",
     "write <prefix>.md and <prefix>.jsonl (reproducibility dossier)"},
    {"replay",
     "replay <file...> [--app PREFIX] [--lenient-traces] [--json]",
     "re-analyze saved .etl / .etlc / CPU-Usage .csv traces, one "
     "Service analyze request each"},
    {"pack",
     "pack <trace> [-o OUT] [--verify] [--index] [--jobs N] "
     "[--lenient-traces]",
     "convert a trace to block-compressed columnar .etlc "
     "(+ optional .dpidx index cache)"},
    {"stats",
     "stats <file...> [--app PREFIX] [--lenient-traces] "
     "[--stats-json FILE] [--selftrace FILE]",
     "replay with self-tracing: analyze DeskPar's own run with "
     "DeskPar"},
    {"query",
     "query <file> [--json] [--explain] [--jobs N] "
     "[--lenient-traces] <spec>...",
     "fused batch metric queries over a saved trace"},
    {"bottlenecks",
     "bottlenecks <file> [--json] [--app PREFIX] [--top N] "
     "[--lenient-traces]",
     "wakeup-chain serialization-bottleneck report (ready-queue "
     "waits, culprits, critical path)"},
    {"serve",
     "serve <socket> [--workers N] [--cache-mb MB] "
     "[--request-jobs N]",
     "resident analysis daemon: hot traces stay cached, requests "
     "are JSON lines on a local socket"},
    {"client",
     "client <socket> <op> [args] [options]",
     "send one request to a running deskpar serve and print the "
     "result document"},
};

[[noreturn]] void
usage()
{
    std::fprintf(stderr, "usage: deskpar <command> [options]\n\n"
                         "commands:\n");
    for (const CommandHelp &cmd : kCommands)
        std::fprintf(stderr, "  %-58s %s\n", cmd.synopsis,
                     cmd.summary);
    std::fprintf(stderr,
                 "\n(common run options are listed in the header of "
                 "tools/deskpar.cc)\n");
    std::exit(2);
}

bool
parseCoreList(const std::string &arg, std::vector<unsigned> &cores,
              std::string &error)
{
    cores.clear();
    std::size_t pos = 0;
    while (pos < arg.size()) {
        std::size_t comma = arg.find(',', pos);
        if (comma == std::string::npos)
            comma = arg.size();
        std::uint64_t value = 0;
        if (!cli::parseUnsigned(arg.substr(pos, comma - pos),
                                value)) {
            error = "expects a comma-separated core list, got '" +
                    arg + "'";
            return false;
        }
        cores.push_back(static_cast<unsigned>(value));
        pos = comma + 1;
    }
    if (cores.empty()) {
        error = "expects a comma-separated core list, got '" + arg +
                "'";
        return false;
    }
    return true;
}

bool
gpuByName(const std::string &name, sim::GpuSpec &gpu,
          std::string &error)
{
    if (name == "1080ti") {
        gpu = sim::GpuSpec::gtx1080Ti();
    } else if (name == "680") {
        gpu = sim::GpuSpec::gtx680();
    } else if (name == "285") {
        gpu = sim::GpuSpec::gtx285();
    } else {
        error = "expects 1080ti, 680, or 285, got '" + name + "'";
        return false;
    }
    return true;
}

/**
 * The shared run/sweep/suite/threads/legacy/report option set, on
 * the cli::Parser so every malformed value is a uniform exit-2
 * usage error (the old std::stoul loops threw into exit 1).
 */
bool
parseRunOptions(const char *command, int argc, char **argv, int first,
                CliOptions &cli)
{
    cli.run.iterations = 3;
    cli.run.duration = sim::sec(30.0);
    cli.run.seedBase = 42;

    double seconds = 30.0;
    double timelineMs = 0.0;
    bool noSmt = false;
    cli::Parser parser(command);
    parser.option("--cores", "LIST",
                  [&cli](const std::string &value,
                         std::string &error) {
                      if (!parseCoreList(value, cli.sweepCores,
                                         error))
                          return false;
                      cli.run.config.activeCpus =
                          cli.sweepCores.front();
                      return true;
                  });
    parser.flag("--no-smt", &noSmt);
    parser.option("--gpu", "NAME",
                  [&cli](const std::string &value,
                         std::string &error) {
                      return gpuByName(value, cli.run.config.gpu,
                                       error);
                  });
    parser.option("--iterations", "N", &cli.run.iterations);
    parser.option("--seconds", "S", &seconds);
    parser.option("--seed", "S", &cli.run.seedBase);
    parser.flag("--manual", &cli.run.manualInput);
    parser.option("--noise", "X", &cli.run.noiseIntensity);
    parser.option("--etl", "FILE", &cli.etlPath);
    parser.option("--cpu-csv", "FILE", &cli.cpuCsvPath);
    parser.option("--gpu-csv", "FILE", &cli.gpuCsvPath);
    parser.option("--timeline", "MS", &timelineMs);
    parser.flag("--json", &cli.json);
    if (!parser.parse(argc, argv, first))
        return false;

    if (noSmt)
        cli.run.config.smtEnabled = false;
    cli.run.duration = sim::sec(seconds);
    if (timelineMs > 0)
        cli.timelineWindow = sim::msec(timelineMs);
    return true;
}

void
printRun(const std::string &id, const apps::AppRunResult &result,
         const analysis::Session &session)
{
    std::printf("%s\n", apps::makeWorkload(id)->spec().name.c_str());
    std::printf("  TLP        %.2f +- %.2f\n",
                result.agg.tlp.mean(), result.agg.tlp.stddev());
    std::printf("  GPU util   %.1f%% +- %.1f%%%s\n",
                result.agg.gpuUtil.mean(),
                result.agg.gpuUtil.stddev(),
                result.agg.gpuOverlapped ? " (overlapping packets)"
                                         : "");
    std::printf("  frames/s   %.1f (real %.1f)\n",
                result.fps.mean(), result.realFps.mean());
    std::printf("  max conc.  %.0f\n",
                result.agg.maxConcurrency.max());
    std::printf("  exec time  %s\n",
                report::heatmapRow(result.agg.meanC).c_str());

    auto responsiveness = session.responsiveness(result.lastPids);
    if (responsiveness.inputs > 0) {
        std::printf("  response   %.2f ms mean (%zu inputs)\n",
                    responsiveness.meanLatencyMs(),
                    responsiveness.inputs);
    }
}

int
cmdList()
{
    report::TextTable table({"Id", "Category", "Application"});
    for (const auto &entry : apps::tableTwoSuite()) {
        table.row()
            .cell(entry.id)
            .cell(entry.category)
            .cell(apps::makeWorkload(entry.id)->spec().name);
    }
    table.print(std::cout);
    return 0;
}

/**
 * Save a simulated trace as .etl the way `deskpar pack` saves .etlc:
 * trace::sortBundle first (the simulator records GPU packets as they
 * complete, not in start order, and the writer refuses an unsorted
 * stream). writeEtl encodes the whole image before it creates the
 * file, so a refused or failed write leaves no file behind.
 */
void
writeRunEtl(const trace::TraceBundle &bundle, const std::string &path)
{
    trace::TraceBundle sorted = bundle;
    trace::sortBundle(sorted);
    trace::writeEtl(sorted, path);
}

int
cmdRun(const std::string &id, CliOptions cli)
{
    apps::AppRunResult result = apps::runWorkload(id, cli.run);
    // One session serves the summary's responsiveness column and the
    // optional timeline below.
    analysis::Session session(result.lastBundle);
    if (cli.json)
        report::writeJson(std::cout, result.agg);
    else
        printRun(id, result, session);

    if (!cli.etlPath.empty()) {
        writeRunEtl(result.lastBundle, cli.etlPath);
        std::printf("  wrote %s\n", cli.etlPath.c_str());
    }
    if (!cli.cpuCsvPath.empty()) {
        trace::writeCpuUsageCsv(result.lastBundle, cli.cpuCsvPath);
        std::printf("  wrote %s\n", cli.cpuCsvPath.c_str());
    }
    if (!cli.gpuCsvPath.empty()) {
        trace::writeGpuUtilCsv(result.lastBundle, cli.gpuCsvPath);
        std::printf("  wrote %s\n", cli.gpuCsvPath.c_str());
    }
    if (cli.timelineWindow > 0) {
        auto series = session.concurrencySeries(result.lastPids,
                                                cli.timelineWindow);
        report::Figure figure("Instantaneous TLP", "time (s)",
                              "threads");
        auto &s = figure.addSeries(id);
        for (const auto &point : series.points)
            s.add(sim::toSeconds(point.t), point.value);
        figure.printAscii(std::cout, 72, 12);
    }
    return 0;
}

int
cmdSweep(const std::string &id, CliOptions cli)
{
    report::TextTable table({"Logical cores", "TLP", "GPU util (%)",
                             "Frames/s", "Response (ms)"});
    for (unsigned cores : cli.sweepCores) {
        apps::RunOptions options = cli.run;
        options.config.activeCpus = cores;
        apps::AppRunResult result = apps::runWorkload(id, options);
        analysis::Session session(result.lastBundle);
        auto resp = session.responsiveness(result.lastPids);
        table.row()
            .cell(std::uint64_t(cores))
            .cell(result.tlp(), 2)
            .cell(result.gpuUtil(), 1)
            .cell(result.fps.mean(), 1)
            .cell(resp.inputs ? resp.meanLatencyMs() : 0.0, 2);
    }
    table.print(std::cout);
    return 0;
}

int
cmdCorpusSweep(int argc, char **argv, int first)
{
    apps::SweepOptions options;
    unsigned count = 0;
    unsigned shardSize = 0;
    bool haveShardSize = false;
    cli::Parser parser("sweep");
    parser.option("--count", "N", &count);
    parser.option("--seed", "S", &options.seed);
    parser.option("--out", "DIR", &options.outDir);
    parser.flag("--resume", &options.resume);
    parser.option("--seconds", "S", &options.seconds);
    parser.option("--shard-size", "K",
                  [&](const std::string &value, std::string &error) {
                      std::uint64_t parsed = 0;
                      if (!cli::parseUnsigned(value, parsed)) {
                          error = "expects a non-negative integer, "
                                  "got '" +
                                  value + "'";
                          return false;
                      }
                      shardSize = static_cast<unsigned>(parsed);
                      haveShardSize = true;
                      return true;
                  });
    parser.option("--jobs", "N", &options.threads);
    if (!parser.parse(argc, argv, first))
        return 2;
    options.count = count;
    if (haveShardSize)
        options.shardSize = shardSize;
    if (options.count == 0 || options.outDir.empty()) {
        std::fprintf(stderr,
                     "deskpar sweep: a corpus sweep needs --count "
                     "and --out\n");
        return 2;
    }

    apps::SweepReport report = apps::runSweep(options);
    std::printf("sweep: %u scenarios, %u shards (%u reused, %u run "
                "this pass)\n",
                report.scenariosTotal, report.shardsTotal,
                report.shardsReused, report.scenariosRun);
    if (report.complete) {
        std::printf("wrote %s\n", report.mergedPath.c_str());
        return 0;
    }
    std::printf("stopped early; rerun with --resume to finish\n");
    return 1;
}

int
cmdThreads(const std::string &id, CliOptions cli)
{
    cli.run.iterations = 1;
    apps::AppRunResult result = apps::runWorkload(id, cli.run);
    auto threads = analysis::topThreads(result.lastBundle,
                                        result.lastPids, 20);
    report::TextTable table({"Process", "Thread", "Tid",
                             "Busy (ms)", "Busy (%)",
                             "Dispatches"});
    for (const auto &t : threads) {
        table.row()
            .cell(t.processName)
            .cell(t.threadName)
            .cell(std::uint64_t(t.tid))
            .cell(sim::toMillis(t.busyTime), 1)
            .cell(100.0 *
                      t.busyShare(result.lastBundle.duration()),
                  2)
            .cell(t.dispatches);
    }
    table.print(std::cout);

    analysis::Session session(result.lastBundle);
    auto power =
        session.power(cli.run.config.cpu, cli.run.config.gpu);
    std::printf("\nestimated power: %.1f W CPU + %.1f W GPU\n",
                power.cpuWatts, power.gpuWatts);
    return 0;
}

int
cmdLegacy(CliOptions cli)
{
    cli.run.config = apps::blake2010Config();
    report::TextTable table({"Id", "TLP", "2010 figure",
                             "GPU util (%)", "2010 figure "});
    for (const auto &entry : apps::legacySuite()) {
        auto model = entry.factory();
        apps::AppRunResult result =
            apps::runWorkload(*model, cli.run);
        table.row()
            .cell(entry.id)
            .cell(result.tlp(), 2)
            .cell(entry.tlp2010, 1)
            .cell(result.gpuUtil(), 1)
            .cell(entry.gpu2010, 1);
    }
    table.print(std::cout);
    return 0;
}

int
cmdReport(const std::string &prefix, CliOptions cli)
{
    std::ofstream md(prefix + ".md");
    std::ofstream jsonl(prefix + ".jsonl");
    if (!md || !jsonl) {
        std::fprintf(stderr, "cannot open output files '%s.*'\n",
                     prefix.c_str());
        return 1;
    }

    md << "# deskpar suite results\n\n";
    md << "Protocol: " << cli.run.iterations << " iterations x "
       << sim::toSeconds(cli.run.duration)
       << " simulated seconds, " << cli.run.config.activeCpus
       << (cli.run.config.smtEnabled ? " logical CPUs (SMT on), "
                                     : " physical cores (SMT off), ")
       << cli.run.config.gpu.model << ", seed "
       << cli.run.seedBase << ".\n\n";

    report::TextTable table({"Application", "Category", "TLP",
                             "sigma", "GPU util (%)", "sigma ",
                             "Max conc."});
    for (const auto &entry : apps::tableTwoSuite()) {
        apps::AppRunResult result =
            apps::runWorkload(entry.id, cli.run);
        table.row()
            .cell(apps::makeWorkload(entry.id)->spec().name)
            .cell(entry.category)
            .cell(result.agg.tlp.mean(), 2)
            .cell(result.agg.tlp.stddev(), 2)
            .cell(result.agg.gpuUtil.mean(), 1)
            .cell(result.agg.gpuUtil.stddev(), 1)
            .cell(result.agg.maxConcurrency.mean(), 0);
        report::writeJson(jsonl, result.agg);
        std::printf("  %-14s done\n", entry.id.c_str());
        std::fflush(stdout);
    }
    table.printMarkdown(md);
    std::printf("wrote %s.md and %s.jsonl\n", prefix.c_str(),
                prefix.c_str());
    return 0;
}

int
cmdSuite(CliOptions cli)
{
    std::vector<apps::SuiteJob> jobs;
    std::vector<std::string> ids;
    for (const auto &entry : apps::tableTwoSuite()) {
        jobs.push_back(apps::suiteJob(entry.id, cli.run));
        ids.push_back(entry.id);
    }
    apps::SuiteOutcome outcome =
        apps::SuiteRunner().runRecoverable(jobs);

    report::TextTable table(
        {"Id", "TLP", "GPU util (%)", "Max conc."});
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (outcome.failed(j)) {
            table.row().cell(ids[j]).cell("FAILED").cell("-").cell(
                "-");
            continue;
        }
        const apps::AppRunResult &result = outcome.results[j];
        table.row()
            .cell(ids[j])
            .cell(result.tlp(), 2)
            .cell(result.gpuUtil(), 1)
            .cell(result.agg.maxConcurrency.mean(), 0);
    }
    table.print(std::cout);
    for (const apps::JobFailure &f : outcome.failures)
        std::fprintf(stderr, "deskpar: job '%s' failed: %s\n",
                     f.label.c_str(), f.diagnostic().str().c_str());
    return outcome.ok() ? 0 : 1;
}

/** Arguments shared by the replay and stats commands. */
struct ReplayOptions
{
    std::vector<std::string> files;
    /** --app, --lenient-traces and (replay only) --json. */
    cli::CommonOptions common;
    /** stats only: output paths ("" = stdout / not written). */
    std::string statsJsonPath;
    std::string selfTracePath;
};

bool
parseReplayOptions(const char *command, int argc, char **argv,
                   int first, bool statsFlags, ReplayOptions &opts)
{
    cli::Parser parser(command);
    cli::addCommonOptions(parser, opts.common,
                          cli::kOptApp | cli::kOptLenient |
                              (statsFlags ? 0u : cli::kOptJson));
    if (statsFlags) {
        parser.option("--stats-json", "FILE", &opts.statsJsonPath);
        parser.option("--selftrace", "FILE", &opts.selfTracePath);
    }
    parser.positionals(&opts.files, 1, cli::Parser::kUnlimited,
                       "trace file");
    return parser.parse(argc, argv, first);
}

/** One replayed file: its analyze result, or why it failed. */
struct ReplayedFile
{
    analysis::ServiceAnalyzeResult result;
    /** what() of the request's exception; empty on success. */
    std::string error;
    /** Pipeline diagnostics raised while answering this file. */
    std::vector<trace::Diagnostic> diagnostics;
};

/**
 * The replay loop behind `replay` (both forms) and `stats`: each
 * file is one Service::analyze request (the serve analyze op's), on
 * one shared Service at resolveJobs() threads. Each worker collects
 * its file's diagnostics, so they print in argument order later.
 */
std::vector<ReplayedFile>
replayFiles(const ReplayOptions &opts)
{
    analysis::Service service;
    std::vector<ReplayedFile> files(opts.files.size());
    sim::parallelFor(sim::resolveJobs(), files.size(),
                     [&](std::size_t i) {
        obs::Span span("replay.file", obs::SpanKind::Job, i);
        trace::CollectingDiagnosticSink sink;
        trace::ScopedThreadDiagnosticSink scope(sink);
        analysis::ServiceTraceRequest request{
            opts.files[i], opts.common.appPrefix, opts.common.lenient};
        try {
            files[i].result = service.analyze(request);
        } catch (const std::exception &err) {
            files[i].error = err.what();
        }
        files[i].diagnostics = sink.diagnostics();
    });
    return files;
}

/**
 * @p file's stderr lines: its diagnostics, then the shared
 * `deskpar: <error>` or `deskpar: degraded ingest: <summary>` line.
 * Returns the file's exit status: 1 when it failed or was degraded.
 */
int
reportReplayedFile(const ReplayedFile &file)
{
    for (const trace::Diagnostic &d : file.diagnostics)
        std::fprintf(stderr, "deskpar: %s\n", d.str().c_str());
    if (!file.error.empty())
        std::fprintf(stderr, "deskpar: %s\n", file.error.c_str());
    else if (file.result.degraded)
        std::fprintf(stderr, "deskpar: degraded ingest: %s\n",
                     file.result.degradedSummary.c_str());
    else
        return 0;
    return 1;
}

/** The replay table, one row per file; 0 when every file is clean. */
int
printReplayTable(const ReplayOptions &opts,
                 const std::vector<ReplayedFile> &files)
{
    report::TextTable table({"Trace", "Size (MB)", "Ingest (MB/s)",
                             "TLP", "GPU util (%)", "Max conc.",
                             "Status"});
    for (std::size_t i = 0; i < files.size(); ++i) {
        table.row().cell(opts.files[i]);
        if (!files[i].error.empty()) {
            for (int dash = 0; dash < 5; ++dash)
                table.cell("-");
            table.cell("FAILED");
            continue;
        }
        const analysis::ServiceAnalyzeResult &r = files[i].result;
        table.cell(static_cast<double>(r.ingest.bytes) / 1e6, 2)
            .cell(r.ingest.mbPerSec(), 1)
            .cell(r.metrics.tlp(), 2)
            .cell(r.metrics.gpuUtilPercent(), 1)
            .cell(std::uint64_t(r.metrics.concurrency.maxConcurrency()))
            .cell("ok");
    }
    table.print(std::cout);
    int status = 0;
    for (const ReplayedFile &file : files)
        status |= reportReplayedFile(file);
    return status;
}

/**
 * `replay --json`: one analyze document per file (JSONL; a failure
 * document for a failed file), byte-identical to the serve op's.
 */
int
printReplayDocuments(const ReplayOptions &opts,
                     const std::vector<ReplayedFile> &files)
{
    int status = 0;
    for (std::size_t i = 0; i < files.size(); ++i) {
        if (files[i].error.empty())
            report::writeAnalyzeDocument(std::cout, files[i].result);
        else
            report::writeAnalyzeFailureDocument(
                std::cout, opts.files[i], files[i].error);
        std::cout << '\n';
        status |= reportReplayedFile(files[i]);
    }
    return status;
}

int
cmdReplay(int argc, char **argv, int first)
{
    ReplayOptions opts;
    if (!parseReplayOptions("replay", argc, argv, first,
                            /*statsFlags=*/false, opts))
        return 2;
    std::vector<ReplayedFile> files = replayFiles(opts);
    return opts.common.json ? printReplayDocuments(opts, files)
                            : printReplayTable(opts, files);
}

int
cmdStats(int argc, char **argv, int first)
{
    ReplayOptions opts;
    if (!parseReplayOptions("stats", argc, argv, first,
                            /*statsFlags=*/true, opts))
        return 2;

    // Record the batch. reset() scopes the snapshot to this run even
    // when DESKPAR_OBS=1 already traced process startup.
    obs::setEnabled(true);
    obs::reset();
    std::vector<ReplayedFile> files = replayFiles(opts);
    obs::Snapshot snapshot = obs::collect();
    obs::setEnabled(false);

    int status = printReplayTable(opts, files);

    if (snapshot.empty()) {
        std::fprintf(stderr,
                     "deskpar: no self-trace spans recorded (built "
                     "with DESKPAR_OBS=OFF?)\n");
        return status ? status : 1;
    }

    if (opts.statsJsonPath.empty()) {
        obs::writeStatsJson(std::cout, snapshot);
        std::cout << '\n';
    } else {
        std::ofstream out(opts.statsJsonPath);
        if (!out) {
            std::fprintf(stderr, "cannot open '%s'\n",
                         opts.statsJsonPath.c_str());
            return 1;
        }
        obs::writeStatsJson(out, snapshot);
        out << '\n';
        std::printf("wrote %s\n", opts.statsJsonPath.c_str());
    }

    // Close the loop: spans -> .etl bytes -> DeskPar's own ingest ->
    // per-phase TLP. The in-memory round trip always runs, so the
    // printed numbers come from a decoded trace, not the snapshot.
    trace::TraceBundle selfBundle = obs::toTraceBundle(snapshot);
    if (!opts.selfTracePath.empty()) {
        trace::writeEtl(selfBundle, opts.selfTracePath);
        std::printf("wrote %s\n", opts.selfTracePath.c_str());
    }
    std::ostringstream etlBytes;
    trace::writeEtl(selfBundle, etlBytes);
    std::string image = etlBytes.str();
    trace::ParseOptions popts;
    popts.source = "<selftrace>";
    trace::IngestReport report;
    analysis::Session session(
        trace::decodeEtl(trace::io::ByteSpan(image), popts, report));
    if (!report.ok()) {
        std::fprintf(stderr,
                     "deskpar: self-trace round trip failed: %s\n",
                     report.summary().c_str());
        return 1;
    }

    report::TextTable table(
        {"Pipeline phase", "TLP", "Max conc.", "Busy (%)"});
    auto phaseRow = [&](const std::string &label,
                        const trace::PidSet &pids) {
        if (pids.empty())
            return;
        auto profile = session.concurrency(pids);
        table.row()
            .cell(label)
            .cell(profile.tlp(), 2)
            .cell(std::uint64_t(profile.maxConcurrency()))
            .cell(100.0 * (1.0 - profile.idleFraction()), 1);
    };
    for (unsigned kind = 0; kind < obs::kNumSpanKinds; ++kind) {
        std::string name = obs::selfTraceProcessName(
            static_cast<obs::SpanKind>(kind));
        phaseRow(name, session.pids(name));
    }
    phaseRow("pipeline (all)", session.pids(obs::kSelfTracePrefix));
    std::printf("\nself-trace analysis (%u threads, %llu spans):\n",
                snapshot.threads,
                static_cast<unsigned long long>(
                    snapshot.spans.size()));
    table.print(std::cout);
    return status;
}

void
printQueryResult(const analysis::QueryResult &result)
{
    std::printf("== %s\n", result.query.label.c_str());
    report::TextTable table({"Key", "t0 (s)", "t1 (s)", "Value"});
    for (const analysis::QueryRow &row : result.rows) {
        table.row()
            .cell(row.key.empty() ? "(all)" : row.key)
            .cell(sim::toSeconds(row.t0), 3)
            .cell(sim::toSeconds(row.t1), 3)
            .cell(row.value, 4);
    }
    table.print(std::cout);
    if (result.query.metric ==
        analysis::QueryMetric::DurationHistogram) {
        for (const analysis::QueryRow &row : result.rows) {
            bool any = false;
            for (std::size_t b = 0; b < row.histogram.size(); ++b) {
                if (row.histogram[b] == 0)
                    continue;
                if (!any)
                    std::printf("  %s bursts by duration:\n",
                                row.key.empty() ? "(all)"
                                                : row.key.c_str());
                any = true;
                std::printf("    [2^%-2zu, 2^%zu) ns  %llu\n", b,
                            b + 1,
                            static_cast<unsigned long long>(
                                row.histogram[b]));
            }
        }
    }
}

int
cmdQuery(int argc, char **argv, int first)
{
    cli::CommonOptions common;
    bool explain = false;
    std::vector<std::string> args;
    cli::Parser parser("query");
    cli::addCommonOptions(parser, common,
                          cli::kOptJobs | cli::kOptJson |
                              cli::kOptLenient);
    parser.flag("--explain", &explain);
    parser.positionals(&args, 2, cli::Parser::kUnlimited,
                       "trace file + specs");
    if (!parser.parse(argc, argv, first))
        return 2;

    analysis::ServiceQueryRequest request;
    request.trace.path = args[0];
    request.trace.lenient = common.lenient;
    request.trace.jobs = common.jobs;
    request.specs.assign(args.begin() + 1, args.end());
    request.explain = explain;

    analysis::Service service;
    analysis::ServiceQueryResult result = service.query(request);
    if (result.degraded)
        std::fprintf(stderr, "deskpar: degraded ingest: %s\n",
                     result.degradedSummary.c_str());

    if (explain)
        std::fputs(result.explainText.c_str(), stdout);
    if (common.json) {
        report::writeQueryDocument(std::cout, result);
        std::cout << '\n';
    } else {
        for (const analysis::QueryResult &qr : result.results)
            printQueryResult(qr);
    }
    return result.degraded ? 1 : 0;
}

int
cmdBottlenecks(int argc, char **argv, int first)
{
    cli::CommonOptions common;
    std::size_t top = 10;
    std::vector<std::string> args;
    cli::Parser parser("bottlenecks");
    cli::addCommonOptions(parser, common,
                          cli::kOptJson | cli::kOptLenient |
                              cli::kOptApp);
    parser.option("--top", "N", &top);
    parser.positionals(&args, 1, 1, "trace file");
    if (!parser.parse(argc, argv, first))
        return 2;

    analysis::ServiceBottlenecksRequest request;
    request.trace.path = args[0];
    request.trace.appPrefix = common.appPrefix;
    request.trace.lenient = common.lenient;
    request.top = top;

    analysis::Service service;
    analysis::ServiceBottlenecksResult result =
        service.bottlenecks(request);
    if (result.degraded)
        std::fprintf(stderr, "deskpar: degraded ingest: %s\n",
                     result.degradedSummary.c_str());

    if (common.json) {
        report::writeBottlenecksDocument(std::cout, result);
        std::cout << '\n';
    } else {
        std::fputs(
            analysis::blocking::renderReport(result.report, top)
                .c_str(),
            stdout);
    }
    return result.degraded ? 1 : 0;
}

/** "<input minus .etl/.csv suffix>.etlc" (or append when neither). */
std::string
defaultPackOutput(const std::string &path)
{
    for (const char *suffix : {".etl", ".csv"}) {
        std::size_t n = std::strlen(suffix);
        if (path.size() > n &&
            path.compare(path.size() - n, n, suffix) == 0)
            return path.substr(0, path.size() - n) + ".etlc";
    }
    return path + ".etlc";
}

int
cmdPack(int argc, char **argv, int first)
{
    cli::CommonOptions common;
    std::string outPath;
    bool verify = false;
    bool writeIndex = false;
    std::vector<std::string> args;
    cli::Parser parser("pack");
    cli::addCommonOptions(parser, common,
                          cli::kOptJobs | cli::kOptLenient);
    parser.option("-o", "FILE", &outPath);
    parser.option("--output", "FILE", &outPath);
    parser.flag("--verify", &verify);
    parser.flag("--index", &writeIndex);
    parser.positionals(&args, 1, 1, "trace file");
    if (!parser.parse(argc, argv, first))
        return 2;
    const std::string &path = args[0];
    bool lenient = common.lenient;
    unsigned jobs = common.jobs;
    if (outPath.empty())
        outPath = defaultPackOutput(path);
    if (outPath == path) {
        std::fprintf(stderr,
                     "deskpar: pack would overwrite its input "
                     "'%s'; pass -o to choose another output\n",
                     path.c_str());
        return 1;
    }
    if (trace::hasCsvName(outPath)) {
        std::fprintf(stderr,
                     "deskpar: pack output '%s' would read back as "
                     "CPU-Usage CSV; pass -o with another name\n",
                     outPath.c_str());
        return 1;
    }

    trace::ParseOptions popts;
    popts.mode = lenient ? trace::ParseMode::Lenient
                         : trace::ParseMode::Strict;
    popts.source = path;
    popts.threads = jobs;
    trace::DecodedTrace decoded =
        trace::decodeTraceFile(path, popts, "pack");
    const trace::IngestReport &report = decoded.report;
    trace::TraceBundle &bundle = decoded.bundle;
    // A degraded lenient ingest still packs what survived, but the
    // run exits nonzero: the output is not a faithful conversion. A
    // refused header leaves nothing to pack: it fails in both modes,
    // as every analysis command does, and writes no output.
    int status = 0;
    if (!report.ok()) {
        if (!lenient || report.headerRefused())
            throw trace::TraceParseError(report.errors.front());
        std::fprintf(stderr, "deskpar: degraded ingest: %s\n",
                     report.summary().c_str());
        status = 1;
    }

    trace::writeEtlc(bundle, outPath);

    std::error_code ec;
    auto inSize = std::filesystem::file_size(path, ec);
    auto outSize = std::filesystem::file_size(outPath, ec);
    if (!ec && outSize > 0)
        std::printf("%s: %llu bytes -> %s: %llu bytes (%.2fx)\n",
                    path.c_str(),
                    static_cast<unsigned long long>(inSize),
                    outPath.c_str(),
                    static_cast<unsigned long long>(outSize),
                    static_cast<double>(inSize) /
                        static_cast<double>(outSize));
    else
        std::printf("wrote %s\n", outPath.c_str());

    if (!verify && !writeIndex)
        return status;

    // Both --verify and --index re-decode the bytes actually on disk
    // the way every later command opens them (strict: the file we
    // just wrote must be flawless).
    trace::ParseOptions vpopts;
    vpopts.threads = jobs;
    trace::DecodedTrace reread =
        trace::decodeTraceFile(outPath, vpopts, "pack");
    if (!reread.report.ok()) {
        std::fprintf(stderr,
                     "deskpar: pack --verify: re-decode of %s "
                     "failed: %s\n",
                     outPath.c_str(), reread.report.summary().c_str());
        return 1;
    }
    trace::TraceBundle &packed = reread.bundle;

    auto mismatch = [&](const char *what) {
        std::fprintf(stderr,
                     "deskpar: pack --verify: %s differs between "
                     "%s and %s\n",
                     what, path.c_str(), outPath.c_str());
        status = 1;
    };
    // Exact comparison; both sides run the same code on what must be
    // the same events, so even doubles have to match bit for bit.
    auto eqd = [](double a, double b) {
        return a == b || (a != a && b != b);
    };

    if (verify) {
        // Canonical-bytes equality covers every event field at once.
        std::ostringstream srcImage, packedImage;
        trace::writeEtlc(bundle, srcImage);
        trace::writeEtlc(packed, packedImage);
        if (srcImage.str() != packedImage.str())
            mismatch("canonical .etlc image");
    }

    analysis::Session srcSession(std::move(bundle));
    analysis::Session packedSession(std::move(packed));

    if (verify) {
        const trace::PidSet all;
        auto a = srcSession.concurrency(all);
        auto b = packedSession.concurrency(all);
        if (a.c != b.c || a.numCpus != b.numCpus ||
            a.window != b.window ||
            a.outOfRangeCpuEvents != b.outOfRangeCpuEvents)
            mismatch("concurrency profile");

        auto ga = srcSession.gpuUtil(all);
        auto gb = packedSession.gpuUtil(all);
        if (!eqd(ga.aggregateRatio, gb.aggregateRatio) ||
            !eqd(ga.busyRatio, gb.busyRatio) ||
            ga.perEngine != gb.perEngine ||
            ga.packetCount != gb.packetCount ||
            ga.overlapped != gb.overlapped)
            mismatch("GPU utilization");

        auto fa = srcSession.frameStats(all);
        auto fb = packedSession.frameStats(all);
        if (fa.frames != fb.frames ||
            fa.synthesizedFrames != fb.synthesizedFrames ||
            !eqd(fa.avgFps, fb.avgFps) ||
            !eqd(fa.fpsStddev, fb.fpsStddev) ||
            !eqd(fa.onePercentLowFps, fb.onePercentLowFps))
            mismatch("frame statistics");

        auto ra = srcSession.responsiveness(all);
        auto rb = packedSession.responsiveness(all);
        if (ra.inputs != rb.inputs || ra.answered != rb.answered ||
            ra.latency.count() != rb.latency.count() ||
            !eqd(ra.latency.mean(), rb.latency.mean()) ||
            !eqd(ra.latency.max(), rb.latency.max()))
            mismatch("responsiveness");

        sim::CpuSpec cpu;
        sim::GpuSpec gpu;
        auto pa = srcSession.power(cpu, gpu);
        auto pb = packedSession.power(cpu, gpu);
        if (!eqd(pa.cpuWatts, pb.cpuWatts) ||
            !eqd(pa.gpuWatts, pb.gpuWatts) ||
            !eqd(pa.seconds, pb.seconds))
            mismatch("power estimate");

        std::vector<analysis::Query> queries;
        for (const char *spec :
             {"tlp", "gpu/by=engine", "csrate/by=thread"})
            queries.push_back(analysis::parseQuerySpec(spec));
        auto qa = srcSession.query(queries, jobs);
        auto qb = packedSession.query(queries, jobs);
        bool queriesEqual = qa.size() == qb.size();
        for (std::size_t q = 0; queriesEqual && q < qa.size(); ++q) {
            queriesEqual = qa[q].rows.size() == qb[q].rows.size();
            for (std::size_t r = 0;
                 queriesEqual && r < qa[q].rows.size(); ++r) {
                const analysis::QueryRow &x = qa[q].rows[r];
                const analysis::QueryRow &y = qb[q].rows[r];
                queriesEqual =
                    x.key == y.key && x.t0 == y.t0 &&
                    x.t1 == y.t1 && x.pid == y.pid &&
                    x.tid == y.tid && eqd(x.value, y.value) &&
                    x.histogram == y.histogram;
            }
        }
        if (!queriesEqual)
            mismatch("query batch results");

        if (status == 0)
            std::printf("verify: %s reproduces every analyzer "
                        "output of %s\n",
                        outPath.c_str(), path.c_str());
    }

    if (writeIndex) {
        packedSession.index().warm(trace::PidSet{});
        std::string error;
        if (analysis::saveIndexCache(packedSession, outPath,
                                     error)) {
            std::printf("wrote %s\n",
                        analysis::indexCachePath(outPath).c_str());
        } else {
            std::fprintf(stderr,
                         "deskpar: pack --index: %s\n",
                         error.c_str());
            status = 1;
        }
    }
    return status;
}

int
cmdServe(int argc, char **argv, int first)
{
    unsigned workers = 4;
    std::uint64_t cacheMb = 256;
    unsigned requestJobs = 1;
    std::vector<std::string> args;
    cli::Parser parser("serve");
    parser.option("--workers", "N", &workers);
    parser.option("--cache-mb", "MB", &cacheMb);
    parser.option("--request-jobs", "N", &requestJobs);
    parser.positionals(&args, 1, 1, "socket path");
    if (!parser.parse(argc, argv, first))
        return 2;

    serve::ServerOptions options;
    options.socketPath = args[0];
    options.workers = workers ? workers : 1;
    options.cacheBytes = cacheMb << 20;
    options.requestJobs = requestJobs;

    serve::Server server(options);
    server.start();
    std::printf("deskpar serve: listening on %s (%u workers)\n",
                options.socketPath.c_str(), options.workers);
    std::fflush(stdout);
    server.wait();
    server.stop();
    std::printf("deskpar serve: stopped\n");
    return 0;
}

int
cmdClient(int argc, char **argv, int first)
{
    cli::CommonOptions common;
    bool explain = false;
    std::uint64_t top = 10;
    std::uint64_t id = 0;
    std::string kind = "tlp";
    double windowMs = 100.0;
    std::vector<std::string> args;
    cli::Parser parser("client");
    cli::addCommonOptions(parser, common,
                          cli::kOptLenient | cli::kOptApp);
    parser.flag("--explain", &explain);
    parser.option("--top", "N", &top);
    parser.option("--id", "N", &id);
    parser.option("--kind", "KIND", &kind);
    parser.option("--window-ms", "MS", &windowMs);
    parser.positionals(&args, 2, cli::Parser::kUnlimited,
                       "socket + op");
    if (!parser.parse(argc, argv, first))
        return 2;

    auto argError = [](const char *what) {
        std::fprintf(stderr, "deskpar client: %s\n", what);
        return 2;
    };

    const std::string &socketPath = args[0];
    const std::string &op = args[1];
    std::string line;
    if (op == "raw") {
        if (args.size() != 3)
            return argError("raw needs exactly one JSON line");
        line = args[2];
    } else {
        bool needsTrace = op == "analyze" || op == "query" ||
                          op == "bottlenecks" || op == "series" ||
                          op == "frames";
        bool known = needsTrace || op == "ping" || op == "stats" ||
                     op == "shutdown";
        if (!known)
            return argError("unknown op (expected ping, stats, "
                            "shutdown, analyze, query, bottlenecks, "
                            "series, frames, or raw)");
        if (needsTrace && args.size() < 3)
            return argError("this op needs a trace path");
        if (op == "query" && args.size() < 4)
            return argError("query needs a trace path and at least "
                            "one spec");
        if (op != "query" && needsTrace && args.size() > 3)
            return argError("unexpected extra argument");
        if (!needsTrace && args.size() > 2)
            return argError("unexpected extra argument");

        std::ostringstream request;
        report::JsonWriter json(request);
        json.beginObject().field("op", op).field("id", id);
        if (needsTrace) {
            json.field("trace", args[2]);
            if (!common.appPrefix.empty())
                json.field("app", common.appPrefix);
            if (common.lenient)
                json.field("lenient", true);
        }
        if (op == "query") {
            json.beginArray("specs");
            for (std::size_t i = 3; i < args.size(); ++i)
                json.value(args[i]);
            json.endArray();
            if (explain)
                json.field("explain", true);
        }
        if (op == "bottlenecks")
            json.field("top", top);
        if (op == "series") {
            json.field("kind", kind);
            json.field("window_ns",
                       static_cast<std::uint64_t>(windowMs * 1e6));
        }
        json.endObject();
        line = request.str();
    }

    serve::Client client;
    std::string error;
    if (!client.connect(socketPath, error)) {
        std::fprintf(stderr, "deskpar client: %s\n", error.c_str());
        return 1;
    }
    std::string response;
    if (!client.call(line, response, error)) {
        std::fprintf(stderr, "deskpar client: %s\n", error.c_str());
        return 1;
    }

    serve::JsonValue envelope;
    if (!serve::parseJson(response, envelope, error)) {
        std::fprintf(stderr,
                     "deskpar client: malformed response: %s\n",
                     error.c_str());
        return 1;
    }
    if (const serve::JsonValue *diags = envelope.find("diagnostics");
        diags && diags->isArray()) {
        for (const serve::JsonValue &d : diags->array())
            std::fprintf(stderr, "deskpar: %s: %s\n",
                         d.stringOr("component", "serve").c_str(),
                         d.stringOr("message", "").c_str());
    }
    if (!envelope.boolOr("ok", false)) {
        const serve::JsonValue *err = envelope.find("error");
        std::string errKind =
            err ? err->stringOr("kind", "internal") : "internal";
        std::string message =
            err ? err->stringOr("message", "request failed")
                : "request failed";
        std::fprintf(stderr, "deskpar: %s\n", message.c_str());
        // Server-side usage errors exit like local ones.
        return errKind == "parse" ? 2 : 1;
    }

    std::string document;
    if (!serve::extractResult(response, document)) {
        std::fprintf(stderr,
                     "deskpar client: response envelope carries no "
                     "result document\n");
        return 1;
    }
    std::printf("%s\n", document.c_str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 2)
        usage();
    std::string command = argv[1];
    try {
        if (command == "list")
            return cmdList();
        if (command == "suite" || command == "legacy") {
            CliOptions cli;
            if (!parseRunOptions(command.c_str(), argc, argv, 2,
                                 cli))
                return 2;
            return command == "suite" ? cmdSuite(cli)
                                      : cmdLegacy(cli);
        }
        if (command == "report") {
            if (argc < 3)
                usage();
            CliOptions cli;
            if (!parseRunOptions("report", argc, argv, 3, cli))
                return 2;
            return cmdReport(argv[2], cli);
        }
        if (command == "replay")
            return cmdReplay(argc, argv, 2);
        if (command == "stats")
            return cmdStats(argc, argv, 2);
        if (command == "query")
            return cmdQuery(argc, argv, 2);
        if (command == "bottlenecks")
            return cmdBottlenecks(argc, argv, 2);
        if (command == "pack")
            return cmdPack(argc, argv, 2);
        if (command == "serve")
            return cmdServe(argc, argv, 2);
        if (command == "client")
            return cmdClient(argc, argv, 2);
        if (command == "run" || command == "sweep" ||
            command == "threads") {
            if (argc < 3)
                usage();
            std::string id = argv[2];
            // `sweep --count ...` (no workload id) is the seeded
            // corpus sweep; `sweep <id> ...` stays the Figure 4
            // core-scaling sweep.
            if (command == "sweep" && id.rfind("--", 0) == 0)
                return cmdCorpusSweep(argc, argv, 2);
            CliOptions cli;
            if (!parseRunOptions(command.c_str(), argc, argv, 3,
                                 cli))
                return 2;
            if (command == "run")
                return cmdRun(id, cli);
            if (command == "sweep")
                return cmdSweep(id, cli);
            return cmdThreads(id, cli);
        }
    } catch (const std::exception &err) {
        std::fprintf(stderr, "deskpar: %s\n", err.what());
        return 1;
    }
    usage();
}

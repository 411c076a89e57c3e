/**
 * @file
 * The offline half of the paper's Figure 1 workflow: record a trace,
 * save it as a binary .etl container, export the two wpaexporter
 * CSVs, parse them back, and compute TLP / GPU utilization from the
 * parsed data — demonstrating that analyses can run fully decoupled
 * from the simulator.
 */

#include <cstdio>
#include <fstream>
#include <utility>

#include "analysis/session.hh"
#include "apps/harness.hh"
#include "trace/csv.hh"
#include "trace/etl.hh"
#include "trace/ingest.hh"
#include "trace/io.hh"

using namespace deskpar;

int
main()
{
    const std::string dir = "/tmp";
    const std::string etl_path = dir + "/deskpar_example.etl";
    const std::string cpu_csv = dir + "/deskpar_cpu_usage.csv";
    const std::string gpu_csv = dir + "/deskpar_gpu_util.csv";

    // 1. "Start Testbench / Start trace": run WinX for 15 s.
    apps::RunOptions options;
    options.iterations = 1;
    options.duration = sim::sec(15.0);
    apps::AppRunResult run = apps::runWorkload("winx", options);
    std::printf("recorded %zu events (%zu context switches, %zu GPU "
                "packets)\n",
                run.lastBundle.totalEvents(),
                run.lastBundle.cswitches.size(),
                run.lastBundle.gpuPackets.size());

    // 2. "Save trace -> .etl file".
    trace::writeEtl(run.lastBundle, etl_path);
    std::ifstream probe(etl_path, std::ios::binary | std::ios::ate);
    std::printf("wrote %s (%lld bytes)\n", etl_path.c_str(),
                static_cast<long long>(probe.tellg()));

    // 3. "Extract columns (WPA) -> .csv files", from the saved file
    //    read back the way every deskpar command opens a trace.
    trace::DecodedTrace decoded = trace::decodeTraceFile(
        etl_path, trace::ParseOptions{}, "example");
    if (!decoded.report.ok()) {
        std::fprintf(stderr, "%s\n", decoded.report.summary().c_str());
        return 1;
    }
    const trace::TraceBundle &from_etl = decoded.bundle;
    trace::writeCpuUsageCsv(from_etl, cpu_csv);
    trace::writeGpuUtilCsv(from_etl, gpu_csv);
    std::printf("exported %s and %s\n", cpu_csv.c_str(),
                gpu_csv.c_str());

    // 4. "Custom scripts": parse the CSVs back and analyze.
    trace::TraceBundle parsed;
    parsed.startTime = from_etl.startTime;
    parsed.stopTime = from_etl.stopTime;
    parsed.numLogicalCpus = from_etl.numLogicalCpus;
    for (const auto &[path, decode] :
         {std::pair{cpu_csv, &trace::decodeCpuUsageCsv},
          std::pair{gpu_csv, &trace::decodeGpuUtilCsv}}) {
        trace::io::MappedFile file =
            trace::io::MappedFile::openOrThrow(path, "example");
        trace::ParseOptions popts;
        popts.source = path;
        trace::IngestReport report = decode(file.span(), parsed, popts);
        if (!report.ok()) {
            std::fprintf(stderr, "%s\n", report.summary().c_str());
            return 1;
        }
    }

    analysis::AppMetrics offline =
        analysis::Session(parsed).app("winx");
    analysis::AppMetrics live =
        analysis::Session(run.lastBundle).app("winx");

    std::printf("\n%-22s %10s %10s\n", "metric", "live", "offline");
    std::printf("%-22s %10.3f %10.3f\n", "TLP", live.tlp(),
                offline.tlp());
    std::printf("%-22s %10.2f %10.2f\n", "GPU utilization (%)",
                live.gpuUtilPercent(), offline.gpuUtilPercent());
    std::printf("%-22s %10.3f %10.3f\n", "idle fraction c0",
                live.concurrency.idleFraction(),
                offline.concurrency.idleFraction());
    std::printf("\nLive and offline numbers match: the analysis "
                "pipeline is provider-agnostic.\n");
    return 0;
}

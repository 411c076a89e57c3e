/**
 * @file
 * `deskpar serve` residency microbenchmark: the one number the
 * daemon exists for is the gap between a cold open (fresh server,
 * first request pays mmap + ingest + index) and a warm request
 * against the resident SessionCache. Measures both end-to-end over
 * a real AF_UNIX socket with the library Client, checks the warm
 * responses stay byte-identical to the cold one, then drives 8
 * concurrent clients against the resident server for a throughput
 * figure. The run fails when a request fails or a warm response
 * diverges; the times are printed, not gated (perfbench's `serve`
 * workload measures the daemon end to end).
 */

#include <unistd.h>

#include <chrono>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <string>
#include <thread>
#include <vector>

#include "analysis/index_cache.hh"
#include "bench_util.hh"
#include "serve/client.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "trace/etl.hh"

using namespace deskpar;

namespace {

namespace fs = std::filesystem;

/**
 * A trace big enough that its ingest dominates a request: ~400k
 * context switches across 8 CPUs and six app processes (DESKPAR_FAST
 * trims it for smoke runs).
 */
trace::TraceBundle
benchBundle(unsigned cswitches)
{
    trace::TraceBundle bundle;
    bundle.startTime = 1000;
    bundle.numLogicalCpus = 8;
    bundle.processNames[0] = "Idle";
    for (trace::Pid pid = 1000; pid < 1006; ++pid)
        bundle.processNames[pid] =
            "app-" + std::to_string(pid - 1000);

    std::uint64_t state = 42;
    auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (unsigned i = 0; i < cswitches; ++i) {
        trace::CSwitchEvent cs;
        cs.timestamp = 1000 + 400ull * i + next() % 100;
        cs.cpu = static_cast<unsigned>(next() % 8);
        cs.oldPid = i % 2 ? 1000 + trace::Pid(next() % 6) : 0;
        cs.oldTid = cs.oldPid * 10 + 1;
        cs.newPid = i % 2 ? 0 : 1000 + trace::Pid(next() % 6);
        cs.newTid = cs.newPid * 10 + 1;
        cs.readyTime = cs.timestamp - next() % 900;
        bundle.cswitches.push_back(cs);
    }
    bundle.stopTime = bundle.cswitches.back().timestamp + 1000;
    return bundle;
}

/** connect + one query round-trip; returns the result document. */
std::string
oneQuery(const std::string &socketPath, const std::string &request)
{
    serve::Client client;
    std::string error;
    if (!client.connect(socketPath, error)) {
        std::fprintf(stderr, "bench_serve: connect: %s\n",
                     error.c_str());
        std::exit(1);
    }
    std::string response;
    if (!client.call(request, response, error)) {
        std::fprintf(stderr, "bench_serve: call: %s\n",
                     error.c_str());
        std::exit(1);
    }
    std::string document;
    if (!serve::extractResult(response, document)) {
        std::fprintf(stderr, "bench_serve: error response: %s\n",
                     response.c_str());
        std::exit(1);
    }
    return document;
}

} // namespace

int
main()
{
    bench::banner("deskpar serve: resident vs cold request latency",
                  "service extension; Section V analysis toolchain");

    bool fast = false;
    if (const char *env = std::getenv("DESKPAR_FAST");
        env && env[0] == '1')
        fast = true;
    const unsigned cswitches = fast ? 100000 : 400000;
    const unsigned repeats = fast ? 3 : 5;

    std::string tag = std::to_string(::getpid());
    fs::path tracePath =
        fs::temp_directory_path() / ("bench_serve_" + tag + ".etl");
    trace::writeEtl(benchBundle(cswitches), tracePath.string());
    fs::remove(analysis::indexCachePath(tracePath.string()));

    const std::string request =
        R"({"op":"query","trace":")" + tracePath.string() +
        R"(","app":"app-","specs":["tlp","busy","csrate"]})";

    // Cold: a fresh server per repeat — every request is the first
    // request, paying the full open. (The .dpidx spill cache is
    // removed each round so disk state cannot warm the open either.)
    double cold = bench::minWallSeconds(repeats, [&] {
        fs::remove(analysis::indexCachePath(tracePath.string()));
        serve::ServerOptions options;
        options.socketPath = "/tmp/dsb_c" + tag + ".sock";
        options.workers = 2;
        serve::Server server(options);
        server.start();
        oneQuery(options.socketPath, request);
        server.stop();
    });

    // Warm: one resident server; prime it, then take the fastest of
    // N round-trips. Responses must stay byte-identical to the
    // priming (cold) response — residency must not change results.
    serve::ServerOptions options;
    options.socketPath = "/tmp/dsb_w" + tag + ".sock";
    options.workers = 4;
    serve::Server server(options);
    server.start();
    std::string primed = oneQuery(options.socketPath, request);
    double warm = bench::minWallSeconds(repeats * 4, [&] {
        std::string document = oneQuery(options.socketPath, request);
        if (document != primed) {
            std::fprintf(stderr,
                         "bench_serve: warm response diverged from "
                         "cold response\n");
            std::exit(1);
        }
    });

    // Throughput: 8 concurrent clients, a burst of requests each,
    // all against the one resident entry.
    const unsigned clients = 8;
    const unsigned perClient = fast ? 8 : 25;
    auto start = std::chrono::steady_clock::now();
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < clients; ++c) {
        threads.emplace_back([&] {
            for (unsigned i = 0; i < perClient; ++i)
                oneQuery(options.socketPath, request);
        });
    }
    for (std::thread &t : threads)
        t.join();
    double burst = std::chrono::duration<double>(
                       std::chrono::steady_clock::now() - start)
                       .count();
    server.stop();

    double speedup = warm > 0 ? cold / warm : 0.0;
    std::printf("trace: %u cswitches (%s)\n", cswitches,
                tracePath.c_str());
    std::printf("cold request (fresh server): %8.3f ms\n",
                cold * 1e3);
    std::printf("warm request (resident):     %8.3f ms\n",
                warm * 1e3);
    std::printf("warm/cold speedup:           %8.1fx\n", speedup);
    std::printf("%u clients x %u reqs burst:  %8.3f s "
                "(%.0f req/s)\n",
                clients, perClient, burst,
                clients * perClient / burst);

    fs::remove(tracePath);
    fs::remove(analysis::indexCachePath(tracePath.string()));
    return 0;
}

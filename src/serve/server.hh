/**
 * @file
 * `deskpar serve`: a resident trace-analysis daemon.
 *
 * One process keeps hot TraceIndexes in memory (analysis::Service's
 * byte-bounded SessionCache) and answers requests over a local
 * AF_UNIX stream socket, newline-delimited JSON both ways
 * (serve/protocol.hh). The analysis CLI pays a full ingest per
 * invocation; a serve client pays it once per file, then every
 * further analyze/query/bottlenecks request against that file is a
 * cache hit.
 *
 * Architecture:
 *
 *   demux thread --- poll(listen fd, wake pipe, conns)
 *        |              accepts, buffers, splits request lines
 *        v
 *   MPMC job queue
 *        |
 *        v
 *   worker pool --- sim::parallelFor(workers, workers, loop):
 *                   the same work-stealing pool the batch paths use,
 *                   each slot running a long-lived request loop
 *
 * Each request executes under an obs::Span(SpanKind::Serve) and a
 * thread-scoped diagnostic sink, so the response envelope carries
 * exactly the diagnostics that request produced (queries default to
 * jobs=1, keeping the whole request on one thread) and the server
 * can report its *own* TLP: the stats op feeds the drained span
 * snapshot through obs::toTraceBundle and the ordinary analysis
 * pipeline — the server measures itself with the tool it serves.
 *
 * Responses on one connection are written in completion order under
 * a per-connection write lock; the request id lets a pipelining
 * client re-associate them.
 */

#ifndef DESKPAR_SERVE_SERVER_HH
#define DESKPAR_SERVE_SERVER_HH

#include <atomic>
#include <chrono>
#include <condition_variable>
#include <cstdint>
#include <deque>
#include <memory>
#include <mutex>
#include <string>
#include <thread>
#include <vector>

#include "analysis/service.hh"
#include "serve/protocol.hh"

namespace deskpar::serve {

struct ServerOptions
{
    /** AF_UNIX socket path (kept short: the ABI caps it at ~107). */
    std::string socketPath;
    /** Request worker threads. */
    unsigned workers = 4;
    /** Resident session-cache budget. */
    std::uint64_t cacheBytes = 256ull << 20;
    /**
     * Query-planner threads per query request; the other ops compute
     * serially. The default 1 keeps each request on its own pool
     * worker: concurrency comes from serving many requests, and
     * per-request diagnostics stay exact.
     */
    unsigned requestJobs = 1;
    /** Reject a connection whose pending line exceeds this. */
    std::size_t maxRequestBytes = 1u << 20;
};

class Server
{
  public:
    explicit Server(const ServerOptions &options);
    ~Server();

    Server(const Server &) = delete;
    Server &operator=(const Server &) = delete;

    /**
     * Bind, listen, and launch the demux thread and worker pool.
     * Throws FatalError when the socket cannot be created (path too
     * long, address in use, permissions).
     */
    void start();

    /** Block until a shutdown request (or stop()) arrives. */
    void wait();

    /**
     * Drain and join everything, close the socket, unlink the path.
     * Idempotent; must not be called from a request worker — the
     * shutdown op only signals wait(), the waiting thread stops.
     */
    void stop();

    const std::string &socketPath() const
    {
        return options_.socketPath;
    }

    analysis::Service &service() { return service_; }

    /**
     * The stats op's document: uptime, per-op request counts and
     * latency percentiles, session-cache counters, and the server's
     * own TLP from the self-trace spans accumulated since the last
     * stats call (collecting drains the obs rings).
     */
    std::string statsDocument();

  private:
    struct Conn;
    struct Job
    {
        std::shared_ptr<Conn> conn;
        std::string line;
    };

    /** Latency/err accounting for one RequestOp. */
    struct OpStats
    {
        std::uint64_t count = 0;
        std::uint64_t errors = 0;
        /** Capped sample ring of request latencies (ms). */
        std::vector<double> samplesMs;
        std::size_t next = 0;
    };

    void demuxLoop();
    void workerLoop();
    void handleJob(const Job &job);
    /** Send @p line and its newline (moved in: no copy). */
    void writeLine(Conn &conn, std::string line);
    void recordLatency(RequestOp op, double ms, bool failed);
    void requestStop();

    ServerOptions options_;
    analysis::Service service_;

    int listenFd_ = -1;
    int wakePipe_[2] = {-1, -1};
    bool started_ = false;
    bool obsWasEnabled_ = false;

    std::thread demuxThread_;
    /** Runs parallelFor hosting the worker loops. */
    std::thread poolThread_;

    std::mutex queueMutex_;
    std::condition_variable queueCv_;
    std::deque<Job> queue_;
    std::atomic<bool> stopping_{false};

    std::mutex waitMutex_;
    std::condition_variable waitCv_;
    bool stopRequested_ = false;

    std::mutex statsMutex_;
    OpStats opStats_[8];
    std::chrono::steady_clock::time_point startTime_;
};

} // namespace deskpar::serve

#endif // DESKPAR_SERVE_SERVER_HH

#include "serve/server.hh"

#include <algorithm>
#include <cerrno>
#include <cstring>
#include <unordered_map>

#include <poll.h>
#include <sys/socket.h>
#include <sys/un.h>
#include <unistd.h>

#include "analysis/session.hh"
#include "obs/obs.hh"
#include "obs/selftrace.hh"
#include "report/documents.hh"
#include "report/json.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "trace/diagnostic.hh"

namespace deskpar::serve {

namespace {

/** Latency samples kept per op for the percentile estimates. */
constexpr std::size_t kMaxLatencySamples = 4096;

/** Nearest-rank percentile of an unsorted sample copy. */
double
percentile(std::vector<double> samples, double p)
{
    if (samples.empty())
        return 0.0;
    std::sort(samples.begin(), samples.end());
    auto rank = static_cast<std::size_t>(
        p * static_cast<double>(samples.size() - 1) / 100.0 + 0.5);
    return samples[std::min(rank, samples.size() - 1)];
}

} // namespace

/** One accepted connection. Shared by the demux loop (reads) and
 *  any workers still writing responses for it. */
struct Server::Conn
{
    int fd = -1;
    /** Serializes response lines from concurrent workers. */
    std::mutex writeMutex;
    /** Bytes received but not yet newline-terminated. */
    std::string inbuf;
    /** Cleared by the demux loop on EOF; writers then drop output. */
    std::atomic<bool> open{true};

    ~Conn()
    {
        if (fd >= 0)
            ::close(fd);
    }
};

Server::Server(const ServerOptions &options)
    : options_(options),
      service_(analysis::Service::Options{
          analysis::SessionCacheOptions{options.cacheBytes}})
{}

Server::~Server()
{
    stop();
}

void
Server::start()
{
    if (started_)
        panic("Server::start called twice");
    if (options_.socketPath.empty())
        fatal("serve: socket path must not be empty");

    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    if (options_.socketPath.size() >= sizeof(addr.sun_path))
        fatal("serve: socket path too long (" +
              std::to_string(options_.socketPath.size()) +
              " bytes; the AF_UNIX limit is " +
              std::to_string(sizeof(addr.sun_path) - 1) + ")");
    std::memcpy(addr.sun_path, options_.socketPath.c_str(),
                options_.socketPath.size() + 1);

    listenFd_ = ::socket(AF_UNIX, SOCK_STREAM, 0);
    if (listenFd_ < 0)
        fatal("serve: socket: " + std::string(std::strerror(errno)));
    // A previous server instance may have left the path behind; a
    // live one will still hold the bind and we fail below.
    ::unlink(options_.socketPath.c_str());
    if (::bind(listenFd_, reinterpret_cast<sockaddr *>(&addr),
               sizeof(addr)) < 0) {
        int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        fatal("serve: bind " + options_.socketPath + ": " +
              std::strerror(err));
    }
    if (::listen(listenFd_, 64) < 0) {
        int err = errno;
        ::close(listenFd_);
        listenFd_ = -1;
        fatal("serve: listen: " + std::string(std::strerror(err)));
    }
    if (::pipe(wakePipe_) < 0) {
        ::close(listenFd_);
        listenFd_ = -1;
        fatal("serve: pipe: " + std::string(std::strerror(errno)));
    }

    // The stats op analyzes the server's own spans; recording must
    // be on for them to exist. Restored on stop() so an embedding
    // process (tests) keeps its setting.
    obsWasEnabled_ = obs::enabled();
    obs::setEnabled(true);

    startTime_ = std::chrono::steady_clock::now();
    stopping_.store(false);
    stopRequested_ = false;
    started_ = true;

    demuxThread_ = std::thread([this] { demuxLoop(); });
    unsigned workers = options_.workers ? options_.workers : 1;
    poolThread_ = std::thread([this, workers] {
        // The request loops ride the same work-stealing pool the
        // batch paths use; each of the N tasks is one long-lived
        // loop, so the pool's N slots all stay busy serving.
        sim::parallelFor(workers, workers,
                         [this](std::size_t) { workerLoop(); });
    });
}

void
Server::wait()
{
    std::unique_lock<std::mutex> lock(waitMutex_);
    waitCv_.wait(lock, [this] { return stopRequested_; });
}

void
Server::requestStop()
{
    std::lock_guard<std::mutex> lock(waitMutex_);
    stopRequested_ = true;
    waitCv_.notify_all();
}

void
Server::stop()
{
    if (!started_)
        return;
    started_ = false;

    stopping_.store(true);
    // Wake the demux poll and every queue waiter.
    if (wakePipe_[1] >= 0) {
        char byte = 0;
        [[maybe_unused]] ssize_t n = ::write(wakePipe_[1], &byte, 1);
    }
    queueCv_.notify_all();

    if (demuxThread_.joinable())
        demuxThread_.join();
    if (poolThread_.joinable())
        poolThread_.join();

    if (listenFd_ >= 0) {
        ::close(listenFd_);
        listenFd_ = -1;
    }
    for (int i = 0; i < 2; ++i) {
        if (wakePipe_[i] >= 0) {
            ::close(wakePipe_[i]);
            wakePipe_[i] = -1;
        }
    }
    ::unlink(options_.socketPath.c_str());
    obs::setEnabled(obsWasEnabled_);
    requestStop();
}

void
Server::demuxLoop()
{
    std::unordered_map<int, std::shared_ptr<Conn>> conns;

    while (!stopping_.load(std::memory_order_relaxed)) {
        std::vector<pollfd> fds;
        fds.push_back({listenFd_, POLLIN, 0});
        fds.push_back({wakePipe_[0], POLLIN, 0});
        for (const auto &entry : conns)
            fds.push_back({entry.first, POLLIN, 0});

        if (::poll(fds.data(), fds.size(), -1) < 0) {
            if (errno == EINTR)
                continue;
            break;
        }
        if (stopping_.load(std::memory_order_relaxed))
            break;

        if (fds[0].revents & POLLIN) {
            int fd = ::accept(listenFd_, nullptr, nullptr);
            if (fd >= 0) {
                auto conn = std::make_shared<Conn>();
                conn->fd = fd;
                conns.emplace(fd, std::move(conn));
            }
        }

        for (std::size_t i = 2; i < fds.size(); ++i) {
            if (!(fds[i].revents & (POLLIN | POLLHUP | POLLERR)))
                continue;
            auto it = conns.find(fds[i].fd);
            if (it == conns.end())
                continue;
            std::shared_ptr<Conn> conn = it->second;

            char buf[4096];
            ssize_t n = ::recv(conn->fd, buf, sizeof(buf), 0);
            if (n <= 0) {
                // EOF or error: no more requests will arrive. The
                // Conn stays alive (shared_ptr) until in-flight
                // responses finish; open=false makes them no-ops.
                conn->open.store(false);
                conns.erase(it);
                continue;
            }
            conn->inbuf.append(buf, static_cast<std::size_t>(n));

            std::size_t start = 0;
            while (true) {
                std::size_t nl = conn->inbuf.find('\n', start);
                if (nl == std::string::npos)
                    break;
                std::string line =
                    conn->inbuf.substr(start, nl - start);
                if (!line.empty() && line.back() == '\r')
                    line.pop_back();
                start = nl + 1;
                if (line.empty())
                    continue;
                std::lock_guard<std::mutex> lock(queueMutex_);
                queue_.push_back(Job{conn, std::move(line)});
                queueCv_.notify_one();
            }
            conn->inbuf.erase(0, start);

            if (conn->inbuf.size() > options_.maxRequestBytes) {
                writeLine(*conn,
                          errorEnvelope(0, "parse",
                                        "request line exceeds " +
                                            std::to_string(
                                                options_
                                                    .maxRequestBytes) +
                                            " bytes"));
                conn->open.store(false);
                conns.erase(conn->fd);
            }
        }
    }
}

void
Server::workerLoop()
{
    while (true) {
        Job job;
        {
            std::unique_lock<std::mutex> lock(queueMutex_);
            queueCv_.wait(lock, [this] {
                return stopping_.load(std::memory_order_relaxed) ||
                       !queue_.empty();
            });
            if (queue_.empty()) {
                if (stopping_.load(std::memory_order_relaxed))
                    return;
                continue;
            }
            job = std::move(queue_.front());
            queue_.pop_front();
        }
        handleJob(job);
    }
}

void
Server::handleJob(const Job &job)
{
    auto begin = std::chrono::steady_clock::now();

    Request request;
    std::string parseError;
    if (!parseRequest(job.line, request, parseError)) {
        recordLatency(RequestOp::Ping, 0.0, /*failed=*/true);
        writeLine(*job.conn,
                  errorEnvelope(0, "parse", parseError));
        return;
    }

    // Capture this request's pipeline diagnostics on this thread
    // (a query plans at jobs=requestJobs, default 1, and the other
    // ops compute serially, so the whole request stays here) and
    // span it for the server's own stats/self-trace.
    trace::CollectingDiagnosticSink sink;
    trace::ScopedThreadDiagnosticSink scope(sink);
    obs::Span span("serve.request", obs::SpanKind::Serve,
                   static_cast<std::uint64_t>(request.op));

    // The reply is rendered once, in place: the envelope head, then
    // the result document straight after it, then the closing brace
    // and the newline. The head goes in after the service call,
    // once the request's diagnostics are all captured.
    std::string reply;
    bool failed = false;
    try {
        auto head = [&] {
            beginSuccessEnvelope(reply, request.id, sink.diagnostics());
        };
        switch (request.op) {
          case RequestOp::Ping:
          case RequestOp::Shutdown:
            head();
            reply += "{\"schema\":" +
                     std::to_string(report::kSchemaVersion) +
                     ",\"command\":\"" + requestOpName(request.op) +
                     "\"}";
            break;
          case RequestOp::Stats: {
            std::string doc = statsDocument();
            head();
            reply += doc;
            break;
          }
          case RequestOp::Analyze: {
            analysis::ServiceAnalyzeResult result =
                service_.analyze(request.trace);
            head();
            report::writeAnalyzeDocument(reply, result);
            break;
          }
          case RequestOp::Query: {
            analysis::ServiceQueryRequest sreq;
            sreq.trace = request.trace;
            sreq.trace.jobs = options_.requestJobs;
            sreq.specs = request.specs;
            sreq.explain = request.explain;
            analysis::ServiceQueryResult result =
                service_.query(sreq);
            head();
            report::writeQueryDocument(reply, result);
            break;
          }
          case RequestOp::Bottlenecks: {
            analysis::ServiceBottlenecksRequest sreq;
            sreq.trace = request.trace;
            sreq.top = request.top;
            analysis::ServiceBottlenecksResult result =
                service_.bottlenecks(sreq);
            head();
            report::writeBottlenecksDocument(reply, result);
            break;
          }
          case RequestOp::Series: {
            analysis::ServiceSeriesRequest sreq;
            sreq.trace = request.trace;
            sreq.kind = request.seriesKind;
            sreq.window = request.window;
            analysis::ServiceSeriesResult result =
                service_.series(sreq);
            head();
            report::writeSeriesDocument(reply, result);
            break;
          }
          case RequestOp::Frames: {
            analysis::ServiceFramesRequest sreq;
            sreq.trace = request.trace;
            analysis::ServiceFramesResult result =
                service_.frames(sreq);
            head();
            report::writeFramesDocument(reply, result);
            break;
          }
        }
        reply += '}';
    } catch (const trace::TraceParseError &e) {
        reply = errorEnvelope(request.id, "trace", e.what());
        failed = true;
    } catch (const FatalError &e) {
        reply = errorEnvelope(request.id, "fatal", e.what());
        failed = true;
    } catch (const std::exception &e) {
        reply = errorEnvelope(request.id, "internal", e.what());
        failed = true;
    }

    // Count the request before its response becomes visible: a
    // client that has read a reply must find that request in the
    // stats op's counters, whichever worker serves the stats call.
    double ms = std::chrono::duration<double, std::milli>(
                    std::chrono::steady_clock::now() - begin)
                    .count();
    recordLatency(request.op, ms, failed);

    writeLine(*job.conn, std::move(reply));

    if (request.op == RequestOp::Shutdown)
        requestStop();
}

void
Server::writeLine(Conn &conn, std::string line)
{
    if (!conn.open.load(std::memory_order_relaxed))
        return;
    line += '\n';
    std::lock_guard<std::mutex> lock(conn.writeMutex);
    std::size_t sent = 0;
    while (sent < line.size()) {
        ssize_t n = ::send(conn.fd, line.data() + sent,
                           line.size() - sent, MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue; // a signal, not the peer: send the rest
        if (n <= 0) {
            // Peer went away: drop the rest of this response and any
            // later ones; the demux loop will notice the close.
            conn.open.store(false);
            return;
        }
        sent += static_cast<std::size_t>(n);
    }
}

void
Server::recordLatency(RequestOp op, double ms, bool failed)
{
    std::lock_guard<std::mutex> lock(statsMutex_);
    OpStats &stats = opStats_[static_cast<unsigned>(op)];
    ++stats.count;
    if (failed)
        ++stats.errors;
    if (stats.samplesMs.size() < kMaxLatencySamples) {
        stats.samplesMs.push_back(ms);
    } else {
        stats.samplesMs[stats.next] = ms;
        stats.next = (stats.next + 1) % kMaxLatencySamples;
    }
}

std::string
Server::statsDocument()
{
    // The server analyzes itself: drain the obs rings and push the
    // spans through the ordinary self-trace -> Session pipeline to
    // get the service loop's TLP since the last stats call.
    double selfTlp = 0.0;
    std::uint64_t selfSpans = 0;
    {
        obs::Snapshot snapshot = obs::collect();
        selfSpans = snapshot.spans.size();
        if (!snapshot.spans.empty()) {
            analysis::Session session(
                obs::toTraceBundle(snapshot));
            trace::PidSet pids =
                session.pids(obs::kSelfTracePrefix);
            if (!pids.empty())
                selfTlp = session.concurrency(pids).tlp();
        }
    }

    double uptime = std::chrono::duration<double>(
                        std::chrono::steady_clock::now() - startTime_)
                        .count();
    analysis::SessionCacheStats cache = service_.cacheStats();

    std::string out;
    report::JsonWriter json(out);
    json.beginObject()
        .field("schema", report::kSchemaVersion)
        .field("command", std::string("server_stats"))
        .field("uptime_s", uptime)
        .field("workers", std::uint64_t(options_.workers))
        .field("self_tlp", selfTlp)
        .field("self_spans", selfSpans);

    json.key("cache");
    json.beginObject()
        .field("hits", cache.hits)
        .field("misses", cache.misses)
        .field("ingests", cache.ingests)
        .field("evictions", cache.evictions)
        .field("invalidations", cache.invalidations)
        .field("resident_bytes", cache.residentBytes)
        .field("entries", cache.entries)
        .endObject();

    json.key("requests");
    json.beginObject();
    {
        std::lock_guard<std::mutex> lock(statsMutex_);
        for (unsigned op = 0; op < 8; ++op) {
            const OpStats &stats = opStats_[op];
            if (stats.count == 0)
                continue;
            json.key(requestOpName(static_cast<RequestOp>(op)));
            json.beginObject()
                .field("count", stats.count)
                .field("errors", stats.errors)
                .field("p50_ms",
                       percentile(stats.samplesMs, 50.0))
                .field("p90_ms",
                       percentile(stats.samplesMs, 90.0))
                .field("p99_ms",
                       percentile(stats.samplesMs, 99.0))
                .endObject();
        }
    }
    json.endObject();
    json.endObject();
    return out;
}

} // namespace deskpar::serve

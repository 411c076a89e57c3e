/**
 * @file
 * End-to-end `deskpar serve` over a real AF_UNIX socket.
 *
 * Contract under test — the acceptance criterion of the serve API:
 * N simultaneous clients get responses whose result documents are
 * byte-identical to the documents a local Service renders for the
 * same requests; malformed requests get typed error envelopes
 * instead of connection drops; the stats op reports the cache and
 * per-op counters; and the shutdown op releases wait().
 */

#include <gtest/gtest.h>

#include <signal.h>
#include <sys/socket.h>
#include <sys/syscall.h>
#include <sys/un.h>
#include <unistd.h>

#include <atomic>
#include <cerrno>
#include <chrono>
#include <cstring>
#include <filesystem>
#include <fstream>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "analysis/index_cache.hh"
#include "analysis/service.hh"
#include "obs/obs.hh"
#include "report/documents.hh"
#include "serve/client.hh"
#include "serve/json_value.hh"
#include "serve/protocol.hh"
#include "serve/server.hh"
#include "trace/etl.hh"

namespace {

using namespace deskpar;
using namespace deskpar::serve;

trace::TraceBundle
serverBundle()
{
    trace::TraceBundle bundle;
    bundle.startTime = 1000;
    bundle.stopTime = 2000000;
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
    for (unsigned i = 0; i < 4000; ++i) {
        trace::CSwitchEvent cs;
        cs.timestamp = 1000 + 400 * i + next() % 100;
        cs.cpu = static_cast<unsigned>(next() % 8);
        cs.oldPid = i % 2 ? 1000 + trace::Pid(next() % 6) : 0;
        cs.oldTid = cs.oldPid * 10 + 1;
        cs.newPid = i % 2 ? 0 : 1000 + trace::Pid(next() % 6);
        cs.newTid = cs.newPid * 10 + 1;
        cs.readyTime = cs.timestamp - next() % 900;
        bundle.cswitches.push_back(cs);
    }
    for (unsigned i = 0; i < 60; ++i) {
        trace::FrameEvent fr;
        fr.timestamp = 5000 + 16000 * i;
        fr.pid = 1000;
        fr.frameId = i;
        fr.synthesized = false;
        bundle.frames.push_back(fr);
    }
    return bundle;
}

/**
 * A running server plus the trace it serves. The socket lives
 * directly under /tmp with a pid-tagged name: TempDir paths can
 * exceed the ~107-byte AF_UNIX limit, /tmp never does.
 */
class ServerTest : public ::testing::Test
{
  protected:
    void SetUp() override
    {
        // Pid-unique: ctest runs each test case as its own process,
        // concurrently, against the same TempDir.
        tracePath_ = ::testing::TempDir() + "/server_test_" +
                     std::to_string(::getpid()) + ".etl";
        trace::writeEtl(serverBundle(), tracePath_);
        std::filesystem::remove(
            analysis::indexCachePath(tracePath_));

        socketPath_ = "/tmp/dsrvt_" + std::to_string(::getpid()) +
                      "_" + std::to_string(instance_++) + ".sock";
        ServerOptions options;
        options.socketPath = socketPath_;
        options.workers = 4;
        server_ = std::make_unique<Server>(options);
        server_->start();
    }

    void TearDown() override
    {
        server_->stop();
        server_.reset();
        EXPECT_FALSE(std::filesystem::exists(socketPath_));
    }

    /** One round-trip on a fresh connection. */
    std::string roundTrip(const std::string &request)
    {
        Client client;
        std::string error;
        EXPECT_TRUE(client.connect(socketPath_, error)) << error;
        std::string response;
        EXPECT_TRUE(client.call(request, response, error)) << error;
        return response;
    }

    JsonValue envelope(const std::string &request)
    {
        JsonValue v;
        std::string error;
        EXPECT_TRUE(parseJson(roundTrip(request), v, error)) << error;
        return v;
    }

    std::string queryRequestLine(std::uint64_t id) const
    {
        return R"({"op":"query","id":)" + std::to_string(id) +
               R"(,"trace":")" + tracePath_ +
               R"(","app":"app-","specs":["tlp","busy"]})";
    }

    static unsigned instance_;
    std::string tracePath_;
    std::string socketPath_;
    std::unique_ptr<Server> server_;
};

unsigned ServerTest::instance_ = 0;

TEST_F(ServerTest, PingEchoesTheRequestId)
{
    JsonValue v = envelope(R"({"op":"ping","id":123})");
    EXPECT_EQ(v.numberOr("schema", 0), 1.0);
    EXPECT_EQ(v.numberOr("id", 0), 123.0);
    EXPECT_TRUE(v.boolOr("ok", false));
}

TEST_F(ServerTest, ConcurrentClientsMatchLocalServiceByteForByte)
{
    // The reference: the same requests rendered by a local Service.
    // Server requests run with requestJobs=1; the default
    // ServiceTraceRequest::jobs is also 1, so the computations align.
    analysis::Service local;
    analysis::ServiceQueryRequest queryRequest;
    queryRequest.trace.path = tracePath_;
    queryRequest.trace.appPrefix = "app-";
    queryRequest.specs = {"tlp", "busy"};
    std::ostringstream queryDoc;
    report::writeQueryDocument(queryDoc, local.query(queryRequest));

    analysis::ServiceBottlenecksRequest bottRequest;
    bottRequest.trace.path = tracePath_;
    bottRequest.top = 5;
    std::ostringstream bottDoc;
    report::writeBottlenecksDocument(bottDoc,
                                     local.bottlenecks(bottRequest));

    const std::string bottLine = R"({"op":"bottlenecks","trace":")" +
                                 tracePath_ + R"(","top":5})";

    constexpr unsigned kClients = 6;
    std::vector<std::string> queryResults(kClients);
    std::vector<std::string> bottResults(kClients);
    std::vector<std::string> failures(kClients);
    std::vector<std::thread> threads;
    for (unsigned i = 0; i < kClients; ++i) {
        threads.emplace_back([&, i] {
            Client client;
            std::string error;
            if (!client.connect(socketPath_, error)) {
                failures[i] = error;
                return;
            }
            std::string response;
            if (!client.call(queryRequestLine(i), response, error) ||
                !extractResult(response, queryResults[i])) {
                failures[i] = "query: " + error + " " + response;
                return;
            }
            if (!client.call(bottLine, response, error) ||
                !extractResult(response, bottResults[i])) {
                failures[i] = "bott: " + error + " " + response;
            }
        });
    }
    for (std::thread &t : threads)
        t.join();

    for (unsigned i = 0; i < kClients; ++i) {
        EXPECT_TRUE(failures[i].empty()) << failures[i];
        EXPECT_EQ(queryResults[i], queryDoc.str()) << i;
        EXPECT_EQ(bottResults[i], bottDoc.str()) << i;
    }

    // All six clients hit one resident entry: one ingest, not six.
    EXPECT_EQ(server_->service().cacheStats().ingests, 1u);
}

TEST_F(ServerTest, MalformedRequestsGetParseErrorEnvelopes)
{
    JsonValue bad = envelope("this is not json");
    EXPECT_FALSE(bad.boolOr("ok", true));
    const JsonValue *err = bad.find("error");
    ASSERT_TRUE(err && err->isObject());
    EXPECT_EQ(err->stringOr("kind", ""), "parse");
    EXPECT_FALSE(err->stringOr("message", "").empty());

    JsonValue unknown = envelope(R"({"op":"transmogrify","id":4})");
    EXPECT_FALSE(unknown.boolOr("ok", true));
    EXPECT_EQ(unknown.numberOr("id", -1), 0.0); // id unknown: 0
    EXPECT_EQ(unknown.find("error")->stringOr("kind", ""), "parse");
}

TEST_F(ServerTest, MissingTraceFileGetsAFatalErrorEnvelope)
{
    JsonValue v = envelope(
        R"({"op":"analyze","id":9,"trace":"/tmp/dsrvt_absent.etl"})");
    EXPECT_FALSE(v.boolOr("ok", true));
    EXPECT_EQ(v.numberOr("id", 0), 9.0);
    const JsonValue *err = v.find("error");
    ASSERT_TRUE(err && err->isObject());
    EXPECT_EQ(err->stringOr("kind", ""), "fatal");
}

// A CPU-Usage CSV holding only its header row has an empty window:
// the served query error names the trace, as the CLI's does.
TEST_F(ServerTest, EmptyWindowQueryErrorNamesTheTrace)
{
    const std::string csv = ::testing::TempDir() + "/server_empty_" +
                            std::to_string(::getpid()) + ".csv";
    std::ofstream(csv) << "New Process,New PID,New TID,CPU,"
                          "Ready Time (ns),Switch-In Time (ns),"
                          "Old Process,Old PID,Old TID\n";
    JsonValue v = envelope(R"({"op":"query","id":5,"trace":")" + csv +
                           R"(","specs":["tlp"]})");
    std::filesystem::remove(csv);
    EXPECT_FALSE(v.boolOr("ok", true));
    const JsonValue *err = v.find("error");
    ASSERT_TRUE(err && err->isObject());
    EXPECT_EQ(err->stringOr("kind", ""), "fatal");
    EXPECT_EQ(err->stringOr("message", ""),
              "fatal: query: empty window in trace '" + csv + "'");
}

TEST_F(ServerTest, SequentialRequestsPipelineOnOneConnection)
{
    Client client;
    std::string error;
    ASSERT_TRUE(client.connect(socketPath_, error)) << error;

    std::string first, second;
    ASSERT_TRUE(client.call(queryRequestLine(1), first, error))
        << error;
    ASSERT_TRUE(client.call(queryRequestLine(2), second, error))
        << error;

    std::string firstDoc, secondDoc;
    ASSERT_TRUE(extractResult(first, firstDoc));
    ASSERT_TRUE(extractResult(second, secondDoc));
    EXPECT_EQ(firstDoc, secondDoc);
}

TEST_F(ServerTest, StatsReportsCacheCountersAndPerOpLatencies)
{
    roundTrip(queryRequestLine(1));
    roundTrip(queryRequestLine(2));

    JsonValue v = envelope(R"({"op":"stats","id":5})");
    ASSERT_TRUE(v.boolOr("ok", false));
    const JsonValue *result = v.find("result");
    ASSERT_TRUE(result && result->isObject());
    EXPECT_EQ(result->stringOr("command", ""), "server_stats");
    EXPECT_GE(result->numberOr("uptime_s", -1), 0.0);
    EXPECT_EQ(result->numberOr("workers", 0), 4.0);

    const JsonValue *cache = result->find("cache");
    ASSERT_TRUE(cache && cache->isObject());
    EXPECT_EQ(cache->numberOr("ingests", 0), 1.0);
    EXPECT_EQ(cache->numberOr("hits", 0), 1.0);
    EXPECT_GT(cache->numberOr("resident_bytes", 0), 0.0);

    const JsonValue *ops = result->find("requests");
    ASSERT_TRUE(ops && ops->isObject());
    const JsonValue *query = ops->find("query");
    ASSERT_TRUE(query && query->isObject());
    EXPECT_EQ(query->numberOr("count", 0), 2.0);
    EXPECT_EQ(query->numberOr("errors", 1), 0.0);
    EXPECT_GE(query->numberOr("p99_ms", -1),
              query->numberOr("p50_ms", -1));
}

#if !defined(DESKPAR_OBS_DISABLED)

/**
 * The daemon records its own spans into fixed per-thread rings (the
 * default 65,536 spans each) for the stats op. Spans are per request,
 * per batch and per series, never per row or window, so a run of
 * row-heavy queries and fine-grained series keeps every serve.request
 * span and drops nothing. The batch is the 16-spec serve batch with
 * its bucket widths scaled to this 2 ms trace (about 3,750 rows).
 */
TEST_F(ServerTest, RowHeavyTrafficKeepsEveryRequestSpan)
{
    const std::string a = "/app=app-";
    const std::vector<std::string> specs = {
        "tlp" + a, "busy" + a, "tlp" + a + "/by=bucket:2us",
        "tlp" + a + "/by=bucket:1us", "busy" + a + "/by=bucket:8us",
        "csrate" + a, "csrate" + a + "/by=bucket:4us", "dhist" + a,
        "tlp" + a + "/by=phase", "gpu" + a, "gpu" + a + "/by=engine",
        "tlp", "busy", "csrate", "dhist", "tlp" + a + "/cpus=0-3"};
    std::string query = R"({"op":"query","trace":")" + tracePath_ +
                        R"(","specs":[)";
    for (std::size_t i = 0; i < specs.size(); ++i)
        query += (i ? ",\"" : "\"") + specs[i] + "\"";
    query += "]";
    const char *const kinds[] = {"tlp", "concurrency", "gpu_util"};

    obs::reset();
    constexpr unsigned kRequests = 50;
    for (unsigned i = 0; i < kRequests; ++i) {
        JsonValue q = envelope(query + R"(,"id":)" +
                               std::to_string(i) + "}");
        ASSERT_TRUE(q.boolOr("ok", false)) << i;
        JsonValue s = envelope(
            R"({"op":"series","id":1,"trace":")" + tracePath_ +
            R"(","kind":")" + kinds[i % 3] + R"(","window_ns":1000})");
        ASSERT_TRUE(s.boolOr("ok", false)) << i;
    }
    // Join the workers so every request span has closed.
    server_->stop();
    obs::Snapshot snapshot = obs::collect();

    EXPECT_EQ(snapshot.droppedSpans, 0u);
    std::size_t requests = 0;
    for (const obs::SpanRecord &span : snapshot.spans)
        requests += span.name != nullptr &&
                    std::string_view(span.name) == "serve.request";
    EXPECT_EQ(requests, 2 * kRequests);
}

#endif // !DESKPAR_OBS_DISABLED

/** Signals the slow-reader test delivered (its handler's count). */
std::atomic<unsigned> gSignals{0};

void
countSignal(int)
{
    gSignals.fetch_add(1, std::memory_order_relaxed);
}

/**
 * A response far larger than the socket buffer is sent in many
 * blocking send() calls. A signal landing on the worker during one
 * of them fails it with EINTR, which must be retried, not taken for
 * a departed peer. Here a client reads a >= 256 KiB query document
 * in small chunks with pauses while every thread of the process,
 * the server's workers included, is showered with a no-op signal
 * installed without SA_RESTART; the document must arrive whole and
 * byte-equal to the local Service's.
 */
TEST_F(ServerTest, SlowReaderGetsWholeDocumentDespiteSignals)
{
    const std::vector<std::string> specs = {
        "tlp/by=bucket:1us", "busy/by=bucket:1us", "csrate/by=bucket:2us"};
    analysis::Service local;
    analysis::ServiceQueryRequest queryRequest;
    queryRequest.trace.path = tracePath_;
    queryRequest.specs = specs;
    std::ostringstream expected;
    report::writeQueryDocument(expected, local.query(queryRequest));
    ASSERT_GE(expected.str().size(), 256u << 10);

    std::string line = R"({"op":"query","id":7,"trace":")" +
                       tracePath_ + R"(","specs":[)";
    for (std::size_t i = 0; i < specs.size(); ++i)
        line += (i ? ",\"" : "\"") + specs[i] + "\"";
    line += "]}\n";

    struct sigaction action {};
    action.sa_handler = countSignal;
    sigemptyset(&action.sa_mask);
    action.sa_flags = 0; // no SA_RESTART: blocking calls see EINTR
    struct sigaction previous {};
    ASSERT_EQ(::sigaction(SIGUSR1, &action, &previous), 0);

    int fd = ::socket(AF_UNIX, SOCK_STREAM, 0);
    ASSERT_GE(fd, 0);
    sockaddr_un addr{};
    addr.sun_family = AF_UNIX;
    std::memcpy(addr.sun_path, socketPath_.c_str(),
                socketPath_.size() + 1);
    int small = 4096;
    ::setsockopt(fd, SOL_SOCKET, SO_RCVBUF, &small, sizeof small);
    // A dropped response must fail the test, not hang it: recv gives
    // up after 100 ms of silence, and the read loop after 10 s.
    timeval timeout{0, 100000};
    ::setsockopt(fd, SOL_SOCKET, SO_RCVTIMEO, &timeout, sizeof timeout);
    const auto deadline =
        std::chrono::steady_clock::now() + std::chrono::seconds(10);
    ASSERT_EQ(::connect(fd, reinterpret_cast<sockaddr *>(&addr),
                        sizeof addr),
              0);

    std::atomic<bool> reading{true};
    std::thread shower([&] {
        const pid_t self = static_cast<pid_t>(::syscall(SYS_gettid));
        while (reading.load()) {
            for (const auto &task :
                 std::filesystem::directory_iterator("/proc/self/task")) {
                pid_t tid = static_cast<pid_t>(
                    std::stol(task.path().filename().string()));
                if (tid != self)
                    ::syscall(SYS_tgkill, ::getpid(), tid, SIGUSR1);
            }
            std::this_thread::sleep_for(std::chrono::microseconds(200));
        }
    });

    std::string response;
    bool sent = true;
    for (std::size_t off = 0; off < line.size();) {
        ssize_t n = ::send(fd, line.data() + off, line.size() - off,
                           MSG_NOSIGNAL);
        if (n < 0 && errno == EINTR)
            continue;
        if (n <= 0) {
            sent = false;
            break;
        }
        off += static_cast<std::size_t>(n);
    }
    while (sent && (response.empty() || response.back() != '\n') &&
           std::chrono::steady_clock::now() < deadline) {
        char chunk[2048];
        ssize_t n = ::recv(fd, chunk, sizeof chunk, 0);
        if (n < 0 && (errno == EINTR || errno == EAGAIN ||
                      errno == EWOULDBLOCK))
            continue; // signalled, or no data yet: until the deadline
        if (n <= 0)
            break; // closed: response incomplete
        response.append(chunk, static_cast<std::size_t>(n));
        std::this_thread::sleep_for(std::chrono::microseconds(300));
    }
    reading.store(false);
    shower.join();
    ::close(fd);
    // A SIGUSR1 sent with tgkill can still be pending on a thread
    // that has it blocked; restoring SIG_DFL first would let it kill
    // the process on delivery. Setting SIG_IGN discards every
    // pending instance (POSIX), then the previous action returns.
    struct sigaction ignore {};
    ignore.sa_handler = SIG_IGN;
    sigemptyset(&ignore.sa_mask);
    ::sigaction(SIGUSR1, &ignore, nullptr);
    ::sigaction(SIGUSR1, &previous, nullptr);

    EXPECT_TRUE(sent);
    EXPECT_GT(gSignals.load(), 0u);
    ASSERT_FALSE(response.empty());
    ASSERT_EQ(response.back(), '\n') << "response cut short after "
                                     << response.size() << " bytes";
    response.pop_back();
    std::string document;
    ASSERT_TRUE(extractResult(response, document));
    EXPECT_EQ(document, expected.str());
}

TEST_F(ServerTest, ShutdownOpReleasesWait)
{
    std::thread waiter([this] { server_->wait(); });
    JsonValue v = envelope(R"({"op":"shutdown","id":1})");
    EXPECT_TRUE(v.boolOr("ok", false));
    waiter.join(); // hangs here if the shutdown op never signals
}

} // namespace

/**
 * @file
 * The layer-attributed benchmark driver (see README.md beside this
 * file for why each workload exists and what each metric predicts).
 *
 *   perfbench_driver --workload suite|trace_cli|serve --seed N
 *                    --seconds S --trace 0|1 --deskpar PATH
 *                    --workdir DIR [--setups K]
 *                    (--golden FILE | --golden-out FILE)
 *
 * One process drives one workload closed-loop for S seconds and
 * prints, as its last stdout line, one JSON object
 * {"correct","attempted","failed","metrics"}. With --trace 0 the
 * metrics are the end-to-end ones; with --trace 1 obs recording is
 * toggled on for every other op (every other 250 ms block on
 * `serve`), benchmark-side spans wrap every call into a layer, and
 * the metrics are the per-layer ones plus the tracing overhead.
 *
 * Layers are timed from outside, around calls into each module's
 * public functions; nothing here adds spans inside src/.
 */

#include <sys/wait.h>
#include <fcntl.h>
#include <malloc.h>
#include <signal.h>
#include <spawn.h>
#include <unistd.h>

#include <algorithm>
#include <bit>
#include <chrono>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <exception>
#include <filesystem>
#include <fstream>
#include <functional>
#include <map>
#include <memory>
#include <mutex>
#include <numeric>
#include <sstream>
#include <stdexcept>
#include <streambuf>
#include <string>
#include <thread>
#include <vector>

#include "analysis/index_cache.hh"
#include "analysis/service.hh"
#include "analysis/session.hh"
#include "apps/harness.hh"
#include "apps/registry.hh"
#include "apps/runner.hh"
#include "obs/obs.hh"
#include "obs/selftrace.hh"
#include "report/documents.hh"
#include "serve/client.hh"
#include "serve/json_value.hh"
#include "serve/protocol.hh"
#include "trace/csv.hh"
#include "trace/etl.hh"
#include "trace/etlc.hh"
#include "trace/filter.hh"
#include "trace/io.hh"
#include "trace/merge.hh"

extern char **environ;

namespace {

using namespace deskpar;
namespace fs = std::filesystem;
using Clock = std::chrono::steady_clock;

/** The thread budget of every workload (the shared host has 4 cores). */
constexpr unsigned kJobs = 2;

double
secondsSince(Clock::time_point t0)
{
    return std::chrono::duration<double>(Clock::now() - t0).count();
}

double
msSince(Clock::time_point t0)
{
    return secondsSince(t0) * 1e3;
}

/** Linear-interpolated quantile; 0 for an empty sample. */
double
quantile(std::vector<double> v, double q)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    double pos = q * static_cast<double>(v.size() - 1);
    std::size_t lo = static_cast<std::size_t>(pos);
    std::size_t hi = std::min(lo + 1, v.size() - 1);
    return v[lo] + (v[hi] - v[lo]) * (pos - static_cast<double>(lo));
}

std::uint64_t
fnv1a(std::string_view bytes, std::uint64_t h = 1469598103934665603ull)
{
    for (unsigned char c : bytes) {
        h ^= c;
        h *= 1099511628211ull;
    }
    return h;
}

std::uint64_t
mixBits(std::uint64_t h, double value)
{
    std::uint64_t bits = std::bit_cast<std::uint64_t>(value);
    return fnv1a(std::string_view(reinterpret_cast<const char *>(&bits),
                                  sizeof bits),
                 h);
}

/** splitmix64: derive independent input seeds from the run seed. */
std::uint64_t
deriveSeed(std::uint64_t seed, std::uint64_t stream)
{
    std::uint64_t z = seed + 0x9E3779B97F4A7C15ull * (stream + 1);
    z = (z ^ (z >> 30)) * 0xBF58476D1CE4E5B9ull;
    z = (z ^ (z >> 27)) * 0x94D049BB133111EBull;
    return (z ^ (z >> 31)) % 1000000007ull + 1;
}

/** Bytes an ostream would receive, without keeping them. */
class CountingBuf : public std::streambuf
{
  public:
    std::uint64_t count = 0;

  protected:
    int_type
    overflow(int_type c) override
    {
        if (!traits_type::eq_int_type(c, traits_type::eof()))
            ++count;
        return traits_type::not_eof(c);
    }
    std::streamsize
    xsputn(const char *, std::streamsize n) override
    {
        count += static_cast<std::uint64_t>(n);
        return n;
    }
};

/** Size of @p bundle as .etl v3: the unit every MB metric counts in. */
std::uint64_t
v3Bytes(const trace::TraceBundle &bundle)
{
    CountingBuf buf;
    std::ostream out(&buf);
    trace::writeEtl(bundle, out);
    return buf.count;
}

/**
 * Start a new peak-RSS window for process @p pid ("self" or a number):
 * the kernel resets VmHWM to the current RSS. Called after set-up, so
 * peak_rss_mb covers the timed ops only, and on the driver at every
 * cycle of the op order.
 */
void
resetPeakRss(const std::string &pid)
{
    if (pid == "self")
        ::malloc_trim(0); // hand set-up's freed heap back first
    std::ofstream f("/proc/" + pid + "/clear_refs");
    f << "5";
    f.flush();
    if (!f)
        throw std::runtime_error("cannot reset the peak RSS of " + pid);
}

/** VmHWM of @p pid in MiB: the peak since the last resetPeakRss. */
double
peakRssMb(const std::string &pid)
{
    std::ifstream f("/proc/" + pid + "/status");
    std::string line;
    while (std::getline(f, line))
        if (line.rfind("VmHWM:", 0) == 0)
            return std::stod(line.substr(6)) / 1024.0;
    throw std::runtime_error("no VmHWM for process " + pid);
}

// ------------------------------------------------------------ metrics

struct Metric
{
    std::string name;
    double value = 0.0;
    std::string unit;
};

class Metrics
{
  public:
    void
    add(const std::string &name, double value, const std::string &unit)
    {
        if (!std::isfinite(value))
            value = 0.0;
        list_.push_back({name, value, unit});
    }
    const std::vector<Metric> &list() const { return list_; }

  private:
    std::vector<Metric> list_;
};

void
printResult(bool correct, std::uint64_t attempted, std::uint64_t failed,
            const Metrics &metrics)
{
    for (const Metric &m : metrics.list())
        std::printf("  %-36s %16.6f %s\n", m.name.c_str(), m.value,
                    m.unit.c_str());
    std::string json = "{\"correct\": ";
    json += correct ? "true" : "false";
    json += ", \"attempted\": " + std::to_string(attempted);
    json += ", \"failed\": " + std::to_string(failed);
    json += ", \"metrics\": {";
    bool first = true;
    for (const Metric &m : metrics.list()) {
        char value[64];
        std::snprintf(value, sizeof value, "%.17g", m.value);
        if (!first)
            json += ", ";
        first = false;
        json += "\"" + m.name + "\": {\"value\": " + value +
                ", \"unit\": \"" + m.unit + "\"}";
    }
    json += "}}";
    std::printf("%s\n", json.c_str());
    std::fflush(stdout);
}

// --------------------------------------------------- layer probes/spans

/** Every public call the benchmark times, with its layer and span. */
enum Call : unsigned {
    kAppsJob,
    kTraceSort,
    kTraceEncode,
    kTraceMap,
    kDecodeEtlc,
    kDecodeEtl,
    kDecodeCsv,
    kIndexBuild,
    kWarmOpen,
    kAnalyze,
    kQuery,
    kBottlenecks,
    kRender,
    kServeRequest,
    kOp,
    kNumCalls
};

struct CallInfo
{
    const char *span;
    obs::SpanKind kind;
    const char *layer;
};

constexpr CallInfo kCalls[kNumCalls] = {
    {"bench.apps.job", obs::SpanKind::Job, "apps"},
    {"bench.trace.sort", obs::SpanKind::Other, "trace"},
    {"bench.trace.encode", obs::SpanKind::Other, "trace"},
    {"bench.trace.map", obs::SpanKind::Ingest, "trace"},
    {"bench.trace.decode.etlc", obs::SpanKind::Ingest, "trace"},
    {"bench.trace.decode.etl", obs::SpanKind::Ingest, "trace"},
    {"bench.trace.decode.csv", obs::SpanKind::Ingest, "trace"},
    {"bench.analysis.index_build", obs::SpanKind::Index, "analysis"},
    {"bench.analysis.warm_open", obs::SpanKind::Index, "analysis"},
    {"bench.analysis.analyze", obs::SpanKind::Query, "analysis"},
    {"bench.analysis.query", obs::SpanKind::Plan, "analysis"},
    {"bench.analysis.bottlenecks", obs::SpanKind::Query, "analysis"},
    {"bench.report.render", obs::SpanKind::Report, "report"},
    {"bench.serve.request", obs::SpanKind::Serve, "serve"},
    {"bench.op", obs::SpanKind::Other, "bench"},
};

const char *const kLayers[] = {"apps", "trace", "analysis", "report",
                               "serve"};

/** Per-thread samples of traced calls (durations plus work done). */
struct Probe
{
    std::vector<double> ms[kNumCalls];
    double work[kNumCalls] = {};

    void
    merge(const Probe &other)
    {
        for (unsigned c = 0; c < kNumCalls; ++c) {
            ms[c].insert(ms[c].end(), other.ms[c].begin(),
                         other.ms[c].end());
            work[c] += other.work[c];
        }
    }
    double
    p50(Call c) const
    {
        return quantile(ms[c], 0.5);
    }
    /** Work units per second of the call (0 when never traced). */
    double
    rate(Call c) const
    {
        double s = 0.0;
        for (double v : ms[c])
            s += v;
        return s > 0.0 ? work[c] / (s / 1e3) : 0.0;
    }
};

/**
 * Times one call into a layer. When obs recording is on (a traced op)
 * it also opens the call's span and keeps the duration; untraced ops
 * pay one clock read and a branch.
 */
class Timed
{
  public:
    Timed(Probe &probe, Call call, double work = 0.0)
        : probe_(probe), call_(call), work_(work),
          traced_(obs::enabled()), span_(kCalls[call].span,
                                         kCalls[call].kind),
          start_(Clock::now())
    {}
    ~Timed()
    {
        if (!traced_)
            return;
        probe_.ms[call_].push_back(msSince(start_));
        probe_.work[call_] += work_;
    }
    Timed(const Timed &) = delete;
    Timed &operator=(const Timed &) = delete;

  private:
    Probe &probe_;
    Call call_;
    double work_;
    bool traced_;
    obs::Span span_;
    Clock::time_point start_;
};

/** One timed op as the end-to-end metrics see it. */
struct OpRecord
{
    unsigned kind = 0;
    /** Position in the fixed op order (same slot, same work) and which
     *  pass over that order the op belonged to. */
    std::size_t slot = 0;
    std::size_t cycle = 0;
    /** Completion time, seconds after the timed phase began. */
    double endS = 0.0;
    double ms = 0.0;
    bool traced = false;
    bool completed = false;
    bool ok = false;
    /** .etl v3-equivalent bytes and simulated seconds the op handled. */
    double v3Bytes = 0.0;
    double simSeconds = 0.0;
};

/** Everything one workload run hands to the metric writer. */
struct RunData
{
    std::vector<std::string> opKinds;
    std::vector<OpRecord> ops;
    double wallSeconds = 0.0;
    /** Ops overlap (several connections), so cycles are timed by
     *  completions rather than by summing op times. */
    bool concurrent = false;
    std::vector<double> setupSeconds;
    /** False when a set-up repeat or a cross-format check failed. */
    bool checksOk = true;
    /** False when the results differ from golden.txt: then no op's
     *  reference can be trusted, and every op counts as failed. */
    bool goldenOk = true;
    /** Peak RSS per cycle of the op order (serve: of the whole phase). */
    std::vector<double> peakRssMb;
    Probe probe;
    std::vector<obs::SpanRecord> spans;
    /** Workload-specific per-layer values (the rest default to 0). */
    std::map<std::string, double> layer;
    std::vector<std::string> failures;

    void
    fail(const std::string &why)
    {
        if (failures.size() < 8)
            failures.push_back(why);
    }
};

/** Drain the obs rings into @p run (outside every op's timing). */
void
collectSpans(RunData &run)
{
    obs::Snapshot snapshot = obs::collect();
    run.spans.insert(run.spans.end(), snapshot.spans.begin(),
                     snapshot.spans.end());
}

bool
isBenchSpan(const obs::SpanRecord &s, Call &call)
{
    for (unsigned c = 0; c < kNumCalls; ++c)
        if (s.name == kCalls[c].span) {
            call = static_cast<Call>(c);
            return true;
        }
    return false;
}

/**
 * Self time per layer from the benchmark's own spans: a span's
 * duration minus the part of it its (benchmark) child spans cover.
 * Library-internal spans count toward the layer whose call opened
 * them, so they are not subtracted.
 */
std::map<std::string, double>
layerSelfMs(const std::vector<obs::SpanRecord> &spans,
            std::map<std::string, double> &calls)
{
    struct Item
    {
        std::uint64_t start, end;
        Call call;
    };
    std::map<std::uint32_t, std::vector<Item>> byThread;
    for (const obs::SpanRecord &s : spans) {
        Call call;
        if (isBenchSpan(s, call))
            byThread[s.thread].push_back({s.startNs, s.endNs, call});
    }
    std::map<std::string, double> self;
    for (auto &[thread, items] : byThread) {
        std::sort(items.begin(), items.end(),
                  [](const Item &a, const Item &b) {
                      return a.start != b.start ? a.start < b.start
                                                : a.end > b.end;
                  });
        // Spans on one thread nest; a stack finds each one's direct
        // parent, which loses the child's duration.
        std::vector<std::size_t> stack;
        std::vector<double> selfNs(items.size());
        for (std::size_t i = 0; i < items.size(); ++i) {
            while (!stack.empty() &&
                   items[stack.back()].end <= items[i].start)
                stack.pop_back();
            double ns = static_cast<double>(items[i].end - items[i].start);
            selfNs[i] += ns;
            if (!stack.empty())
                selfNs[stack.back()] -= ns;
            stack.push_back(i);
        }
        for (std::size_t i = 0; i < items.size(); ++i) {
            const char *layer = kCalls[items[i].call].layer;
            self[layer] += selfNs[i] / 1e6;
            if (items[i].call != kOp)
                calls[layer] += 1.0;
        }
    }
    return self;
}

/** Equation 1 per span kind over the collected self-trace. */
std::map<std::string, double>
selfTlpByKind(const std::vector<obs::SpanRecord> &spans)
{
    std::map<std::string, double> tlp;
    if (spans.empty())
        return tlp;
    obs::Snapshot snapshot;
    snapshot.spans = spans;
    for (const obs::SpanRecord &s : spans)
        snapshot.threads = std::max(snapshot.threads, s.thread + 1);
    analysis::Session session(obs::toTraceBundle(snapshot));
    for (unsigned k = 0; k < obs::kNumSpanKinds; ++k) {
        auto kind = static_cast<obs::SpanKind>(k);
        trace::PidSet pids =
            session.pids(obs::selfTraceProcessName(kind));
        tlp[obs::spanKindName(kind)] =
            pids.empty() ? 0.0 : session.concurrency(pids).tlp();
    }
    return tlp;
}

// ------------------------------------------------------ metric writers

void
writeEndToEnd(const RunData &run, Metrics &m)
{
    // Latency percentiles are taken over the slots of the fixed op
    // order, each slot at its median: every slot runs equally often,
    // and a pooled percentile would sit on the gap between two slots'
    // clusters (30 apps put p50 exactly between the 15th and 16th).
    std::map<std::size_t, std::vector<double>> bySlot;
    struct Cycle
    {
        double ops = 0.0, ms = 0.0, sim = 0.0, v3 = 0.0, end = 0.0;
    };
    std::map<std::size_t, Cycle> cycles;
    std::uint64_t ok = 0, completed = 0;
    for (const OpRecord &op : run.ops) {
        if (op.ok)
            ++ok;
        if (!op.completed)
            continue;
        ++completed;
        bySlot[op.slot].push_back(op.ms);
        Cycle &c = cycles[op.cycle];
        c.ops += 1.0;
        c.ms += op.ms;
        c.sim += op.simSeconds;
        c.v3 += op.v3Bytes;
        c.end = std::max(c.end, op.endS);
    }
    std::vector<double> slotMs;
    for (const auto &[slot, v] : bySlot)
        slotMs.push_back(quantile(v, 0.5));
    // Rates are the median over whole cycles of the op order. A cycle
    // lasts its ops' own time when one thread runs them back to back,
    // and from the previous cycle's last completion to its own when
    // connections overlap.
    std::vector<double> opsRate, simRate, mbRate;
    double prevEnd = 0.0;
    for (const auto &[k, c] : cycles) {
        double s = run.concurrent ? c.end - prevEnd : c.ms / 1e3;
        prevEnd = c.end;
        if (s <= 0.0)
            continue;
        opsRate.push_back(c.ops / s);
        simRate.push_back(c.sim / s);
        mbRate.push_back(c.v3 / 1e6 / s);
    }
    m.add("setup_s", quantile(run.setupSeconds, 0.5), "s");
    m.add("ops_per_s", quantile(opsRate, 0.5), "1/s");
    m.add("op_ms.p50", quantile(slotMs, 0.5), "ms");
    m.add("op_ms.p90", quantile(slotMs, 0.9), "ms");
    m.add("ok_ratio",
          run.ops.empty() ? 0.0
                          : static_cast<double>(ok) /
                                static_cast<double>(run.ops.size()),
          "fraction");
    m.add("peak_rss_mb", quantile(run.peakRssMb, 0.5), "MiB");
    m.add("sim_s_per_s", quantile(simRate, 0.5), "1/s");
    m.add("mb_per_s", quantile(mbRate, 0.5), "MB/s");
    std::printf("  op samples: %llu over %zu slots of the op order, "
                "%zu whole cycles in %.3f s\n",
                 static_cast<unsigned long long>(completed), slotMs.size(),
                 opsRate.size(), run.wallSeconds);
}

/**
 * Called as op @p i starts a cycle of the op order: close the previous
 * cycle's peak-RSS window of the driver and open the next, so one
 * cycle's heap does not stand in for another's.
 */
void
nextRssWindow(RunData &run, std::size_t i)
{
    if (i > 0)
        run.peakRssMb.push_back(peakRssMb("self"));
    resetPeakRss("self");
}

/** Every op kind any workload has, for the share metrics. */
const char *const kAllOpKinds[] = {
    "app",          "cold_analyze",      "cold_query",
    "cold_bottlenecks", "warm_analyze",  "serve_query",
    "serve_bottlenecks", "serve_series", "serve_frames",
    "serve_analyze", "serve_ping",
};

/** Serve op kinds as the protocol names them. */
const char *const kServeKinds[] = {"query",  "bottlenecks", "series",
                                   "frames", "analyze",     "ping"};

void
writePerLayer(RunData &run, Metrics &m)
{
    const Probe &p = run.probe;
    auto layer = [&run](const std::string &name) {
        auto it = run.layer.find(name);
        return it == run.layer.end() ? 0.0 : it->second;
    };

    // Op-level bookkeeping of the traced ops.
    std::vector<double> kindMs(run.opKinds.size());
    double tracedOps = 0.0, tracedMs = 0.0;
    struct Pair
    {
        double ms[2] = {};
        double n[2] = {};
    };
    std::map<std::size_t, Pair> slots;
    for (const OpRecord &op : run.ops) {
        if (!op.completed)
            continue;
        Pair &pair = slots[op.slot];
        pair.ms[op.traced] += op.ms;
        pair.n[op.traced] += 1.0;
        if (op.traced) {
            tracedOps += 1.0;
            tracedMs += op.ms;
            kindMs[op.kind] += op.ms;
        }
    }
    // Tracing overhead on an identical op mix: the time of every slot
    // seen both ways, at its traced vs its untraced mean, weighted by
    // how often it ran. The ratio is untraced/traced ops_per_s.
    double mixTraced = 0.0, mixUntraced = 0.0;
    for (const auto &[slot, pair] : slots) {
        if (pair.n[0] == 0 || pair.n[1] == 0)
            continue;
        double weight = pair.n[0] + pair.n[1];
        mixTraced += weight * pair.ms[1] / pair.n[1];
        mixUntraced += weight * pair.ms[0] / pair.n[0];
    }

    m.add("apps.job_ms.p50", p.p50(kAppsJob), "ms");
    m.add("sim.records", layer("sim.records"), "count");
    m.add("sim.records_per_s", p.rate(kAppsJob), "1/s");
    m.add("trace.sort_ms.p50", p.p50(kTraceSort), "ms");
    m.add("trace.encode_ms.p50", p.p50(kTraceEncode), "ms");
    m.add("trace.encode_mb_per_s", p.rate(kTraceEncode) / 1e6, "MB/s");
    m.add("trace.etlc_ratio", layer("trace.etlc_ratio"), "ratio");
    m.add("trace.map_ms.p50", p.p50(kTraceMap), "ms");
    m.add("trace.decode.etlc_mb_per_s", p.rate(kDecodeEtlc) / 1e6,
          "MB/s");
    m.add("trace.decode.etl_mb_per_s", p.rate(kDecodeEtl) / 1e6, "MB/s");
    m.add("trace.decode.csv_mb_per_s", p.rate(kDecodeCsv) / 1e6, "MB/s");
    m.add("analysis.index_build_ms.p50", p.p50(kIndexBuild), "ms");
    m.add("analysis.warm_open_ms.p50", p.p50(kWarmOpen), "ms");
    m.add("analysis.warm_open_hit_ratio",
          p.ms[kWarmOpen].empty()
              ? 0.0
              : p.work[kWarmOpen] /
                    static_cast<double>(p.ms[kWarmOpen].size()),
          "ratio");
    m.add("analysis.analyze_ms.p50", p.p50(kAnalyze), "ms");
    // On serve, Session::query and ::bottlenecks run in the daemon:
    // their time is the server-side p50 of those request kinds.
    m.add("analysis.query_ms.p50",
          p.ms[kQuery].empty() ? layer("serve.query.server_ms.p50")
                               : p.p50(kQuery),
          "ms");
    m.add("analysis.query_rows_per_s", p.rate(kQuery), "1/s");
    m.add("analysis.bottlenecks_ms.p50",
          p.ms[kBottlenecks].empty()
              ? layer("serve.bottlenecks.server_ms.p50")
              : p.p50(kBottlenecks),
          "ms");
    m.add("analysis.session_cache.hit_ratio",
          layer("analysis.session_cache.hit_ratio"), "ratio");
    m.add("analysis.session_cache.evictions",
          layer("analysis.session_cache.evictions"), "count");
    m.add("analysis.session_cache.resident_mb",
          layer("analysis.session_cache.resident_mb"), "MiB");
    m.add("report.render_ms.p50", p.p50(kRender), "ms");
    m.add("report.doc_kb.p50", layer("report.doc_kb.p50"), "KiB");
    for (const char *kind : kServeKinds) {
        std::string base = std::string("serve.") + kind;
        m.add(base + ".rtt_ms.p50", layer(base + ".rtt_ms.p50"), "ms");
        m.add(base + ".server_ms.p50", layer(base + ".server_ms.p50"),
              "ms");
    }
    m.add("serve.wait_ms.p50", layer("serve.wait_ms.p50"), "ms");
    m.add("serve.self_tlp", layer("serve.self_tlp"), "threads");

    m.add("obs.overhead_pct",
          mixUntraced > 0 ? (mixTraced / mixUntraced - 1.0) * 100.0
                          : 0.0,
          "%");
    std::map<std::string, double> tlp = selfTlpByKind(run.spans);
    for (const char *kind :
         {"job", "ingest", "index", "query", "plan", "report", "serve"})
        m.add(std::string("obs.self_tlp.") + kind, tlp[kind], "threads");

    std::map<std::string, double> calls;
    std::map<std::string, double> self = layerSelfMs(run.spans, calls);
    double layered = 0.0, total = 0.0;
    for (const auto &[name, ms] : self) {
        total += ms;
        if (name != "bench")
            layered += ms;
    }
    double perOp = tracedOps > 0 ? 1.0 / tracedOps : 0.0;
    for (const char *name : kLayers) {
        m.add(std::string(name) + ".self_ms", self[name] * perOp, "ms");
        m.add(std::string(name) + ".calls", calls[name], "count");
    }
    m.add("bench.self_ms", self["bench"] * perOp, "ms");
    m.add("obs.layer_coverage_pct",
          total > 0 ? layered / total * 100.0 : 0.0, "%");

    for (const char *kind : kAllOpKinds) {
        double share = 0.0;
        for (std::size_t k = 0; k < run.opKinds.size(); ++k)
            if (run.opKinds[k] == kind && tracedMs > 0)
                share = kindMs[k] / tracedMs * 100.0;
        m.add(std::string("ops.") + kind + ".share_pct", share, "%");
    }
    m.add("ops.traced", tracedOps, "count");
}

// --------------------------------------------------------- shared bits

struct Args
{
    std::string workload;
    std::uint64_t seed = 1;
    double seconds = 10.0;
    bool trace = false;
    std::string deskpar;
    std::string workdir;
    unsigned setups = 3;
    /** golden.txt to check against, or (goldenOut) to write. */
    std::string golden;
    std::string goldenOut;
};

/** Table II operating points (the tolerance of the suite property test). */
struct Target
{
    double tlp;
    double gpu;
};

const std::map<std::string, Target> &
tableTwo()
{
    static const std::map<std::string, Target> kTargets = {
        {"photoshop", {8.6, 1.6}},    {"maya", {2.7, 9.9}},
        {"autocad", {1.2, 9.0}},      {"acrobat", {1.3, 0.0}},
        {"excel", {2.1, 2.1}},        {"powerpoint", {1.2, 4.0}},
        {"word", {1.3, 1.7}},         {"outlook", {1.3, 2.5}},
        {"quicktime", {1.1, 16.4}},   {"wmplayer", {1.3, 16.1}},
        {"vlc", {1.8, 15.7}},         {"powerdirector", {4.3, 6.3}},
        {"premiere", {1.8, 0.6}},     {"handbrake", {9.4, 0.4}},
        {"winx", {9.2, 13.6}},        {"firefox", {2.2, 8.6}},
        {"chrome", {2.2, 5.1}},       {"edge", {2.0, 4.0}},
        {"azsunshine", {3.4, 68.2}},  {"fallout4", {4.0, 84.9}},
        {"rawdata", {2.6, 90.9}},     {"serioussam", {2.4, 72.2}},
        {"spacepirate", {2.7, 61.6}}, {"projectcars2", {3.8, 80.2}},
        {"bitcoinminer", {5.4, 98.9}},
        {"easyminer", {11.9, 96.1}},
        {"phoenixminer", {1.0, 100.0}},
        {"wineth", {1.0, 99.7}},      {"cortana", {1.4, 2.7}},
        {"braina", {1.1, 0.0}},
    };
    return kTargets;
}

bool
withinTableTwo(const std::string &app, double tlp, double gpu)
{
    auto it = tableTwo().find(app);
    if (it == tableTwo().end())
        return false;
    const Target &t = it->second;
    return std::fabs(tlp - t.tlp) <= std::max(0.25, t.tlp * 0.20) &&
           std::fabs(gpu - t.gpu) <= std::max(1.5, t.gpu * 0.20);
}

/** A fresh private directory for one set-up; removed by its owner. */
std::string
freshDir(const std::string &stem)
{
    std::string pattern = stem + "-XXXXXX";
    std::vector<char> buf(pattern.begin(), pattern.end());
    buf.push_back('\0');
    if (!::mkdtemp(buf.data()))
        throw std::runtime_error("mkdtemp " + pattern + ": " +
                                 std::strerror(errno));
    return buf.data();
}

// -------------------------------------------------------------- golden

/**
 * Digests of reference results, by key. golden.txt beside this file
 * holds them for seeds 1 and 2 of every workload, one
 * "<workload> <seed> <key> <hex>" per line. The in-run checks compare
 * a build with itself; golden.txt compares it with the commit that
 * wrote the file, so a change in code the driver shares with the
 * program (simulator, decoders, Session, renderers) fails the run.
 */
using Digests = std::map<std::string, std::uint64_t>;

/** A run at a seed golden.txt lacks re-derives a share of this one's. */
constexpr std::uint64_t kCanarySeed = 1;

/** FNV-1a of a document with its private directory taken out. */
std::uint64_t
docDigest(std::string doc, const std::string &dir)
{
    const std::string prefix = dir + "/";
    for (std::size_t at = doc.find(prefix); at != std::string::npos;
         at = doc.find(prefix, at))
        doc.erase(at, prefix.size());
    return fnv1a(doc);
}

Digests
readGolden(const Args &args, std::uint64_t seed)
{
    std::ifstream f(args.golden);
    if (!f)
        throw std::runtime_error("cannot read " + args.golden);
    Digests d;
    std::string workload, key, hex;
    std::uint64_t s = 0;
    while (f >> workload >> s >> key >> hex)
        if (workload == args.workload && s == seed)
            d[key] = std::stoull(hex, nullptr, 16);
    return d;
}

/**
 * Compare the run with golden.txt, or write its digests to goldenOut.
 * @p full gives the digests of the run's own references; @p canary
 * the share of kCanarySeed's that a run at another seed re-derives.
 */
void
checkGolden(const Args &args, const std::function<Digests()> &full,
            const std::function<Digests()> &canary, RunData &run)
{
    if (!args.goldenOut.empty()) {
        std::ofstream out(args.goldenOut);
        for (const auto &[key, h] : full()) {
            char hex[24];
            std::snprintf(hex, sizeof hex, "%016llx",
                          static_cast<unsigned long long>(h));
            out << args.workload << ' ' << args.seed << ' ' << key << ' '
                << hex << '\n';
        }
        if (!out)
            throw std::runtime_error("cannot write " + args.goldenOut);
        return;
    }
    std::uint64_t seed = args.seed;
    Digests want = readGolden(args, seed);
    const bool exact = !want.empty();
    if (!exact) {
        seed = kCanarySeed;
        want = readGolden(args, seed);
    }
    Digests got;
    std::size_t bad = 0;
    try {
        got = exact ? full() : canary();
    } catch (const std::exception &e) {
        ++bad;
        run.fail(std::string("golden check: ") + e.what());
    }
    for (const auto &[key, h] : got) {
        auto it = want.find(key);
        if (it == want.end() || it->second != h) {
            ++bad;
            run.fail(key + " differs from golden.txt at seed " +
                     std::to_string(seed));
        }
    }
    if (want.empty() || (exact && got.size() != want.size())) {
        ++bad;
        run.fail("golden.txt does not list the same " + args.workload +
                 " results at seed " + std::to_string(seed));
    }
    run.goldenOk = bad == 0;
    std::printf("  golden: %zu digests at seed %llu, %zu differ\n",
                got.size(), static_cast<unsigned long long>(seed), bad);
}

/** The six trace apps: transcode, VR, office, browser, miner, image. */
const char *const kTraceApps[] = {"handbrake", "fallout4", "word",
                                  "chrome",    "easyminer", "photoshop"};

/**
 * Simulate @p apps for @p seconds each (one iteration) on the pinned
 * runner and sort each trace as `deskpar pack` does: the browsers'
 * GPU packets leave the simulator out of start order.
 */
std::vector<trace::TraceBundle>
simulateTraces(const apps::SuiteRunner &runner,
               const std::vector<std::string> &apps,
               const std::vector<double> &seconds, std::uint64_t seed)
{
    std::vector<apps::SuiteJob> jobs;
    for (std::size_t i = 0; i < apps.size(); ++i) {
        apps::RunOptions o;
        o.iterations = 1;
        o.duration = sim::sec(seconds[i]);
        o.seedBase = deriveSeed(seed, 100 + i);
        jobs.push_back(apps::suiteJob(apps[i], o));
    }
    std::vector<apps::AppRunResult> results = runner.run(jobs);
    std::vector<trace::TraceBundle> bundles;
    for (apps::AppRunResult &r : results) {
        bundles.push_back(std::move(r.lastBundle));
        trace::sortBundle(bundles.back());
    }
    return bundles;
}

// --------------------------------------------------------------- suite

struct SuiteRef
{
    std::uint64_t digest = 0;
    double v3Bytes = 0.0;
    double etlcBytes = 0.0;
    std::uint64_t records = 0;
    bool inTolerance = false;
};

/** Bit-exact fingerprint of one suite op: metrics, counts, .etlc bytes. */
SuiteRef
fingerprint(const std::string &app, const apps::AppRunResult &r,
            const std::string &etlc)
{
    SuiteRef ref;
    std::uint64_t h = fnv1a(etlc);
    h = mixBits(h, r.tlp());
    h = mixBits(h, r.gpuUtil());
    h = mixBits(h, r.fps.mean());
    for (const apps::IterationResult &it : r.iterations) {
        h = mixBits(h, it.metrics.tlp());
        ref.records += it.sched.contextSwitches;
    }
    ref.digest = h;
    ref.etlcBytes = static_cast<double>(etlc.size());
    ref.inTolerance = withinTableTwo(app, r.tlp(), r.gpuUtil());
    return ref;
}

/**
 * One reference pass: @p apps at the paper protocol from @p seedBase,
 * each sorted, packed and fingerprinted as a timed op would be.
 */
std::vector<SuiteRef>
suitePass(const apps::SuiteRunner &runner,
          const std::vector<std::string> &apps, std::uint64_t seedBase)
{
    apps::RunOptions o; // the paper protocol: 3 x duration()
    o.seedBase = seedBase;
    std::vector<apps::SuiteJob> jobs;
    for (const std::string &id : apps)
        jobs.push_back(apps::suiteJob(id, o));
    std::vector<apps::AppRunResult> results = runner.run(jobs);
    std::vector<SuiteRef> refs;
    for (std::size_t a = 0; a < apps.size(); ++a) {
        trace::TraceBundle &bundle = results[a].lastBundle;
        trace::sortBundle(bundle);
        std::ostringstream etlc;
        trace::writeEtlc(bundle, etlc);
        refs.push_back(fingerprint(apps[a], results[a], etlc.str()));
        refs.back().v3Bytes = static_cast<double>(v3Bytes(bundle));
    }
    return refs;
}

/** Golden digests of suite passes: "p<pass>/<app>". */
Digests
suiteDigests(const std::vector<std::string> &apps,
             const std::vector<SuiteRef> *passes, unsigned count)
{
    Digests d;
    for (unsigned pass = 0; pass < count; ++pass)
        for (std::size_t a = 0; a < apps.size(); ++a)
            d["p" + std::to_string(pass) + "/" + apps[a]] =
                passes[pass][a].digest;
    return d;
}

void
runSuite(const Args &args, RunData &run)
{
    const std::vector<std::string> apps = apps::workloadIds();
    const std::uint64_t seeds[2] = {deriveSeed(args.seed, 0),
                                    deriveSeed(args.seed, 1)};
    apps::SuiteRunner runner(kJobs);
    run.opKinds = {"app"};

    std::vector<double> simSeconds;
    for (const std::string &id : apps) {
        apps::WorkloadPtr model = apps::makeWorkload(id);
        apps::RunOptions o;
        simSeconds.push_back(static_cast<double>(o.iterations) *
                             sim::toSeconds(model->duration()));
    }
    auto options = [&seeds](unsigned pass) {
        apps::RunOptions o; // the paper protocol: 3 x duration()
        o.seedBase = seeds[pass % 2];
        return o;
    };

    // Set-up: the reference pass over every app at both pass seeds.
    std::vector<SuiteRef> refs[2];
    for (unsigned rep = 0; rep < args.setups; ++rep) {
        auto t0 = Clock::now();
        std::vector<SuiteRef> fresh[2];
        for (unsigned pass = 0; pass < 2; ++pass)
            fresh[pass] = suitePass(runner, apps, seeds[pass]);
        run.setupSeconds.push_back(secondsSince(t0));
        if (rep == 0) {
            refs[0] = fresh[0];
            refs[1] = fresh[1];
            continue;
        }
        for (unsigned pass = 0; pass < 2; ++pass)
            for (std::size_t a = 0; a < apps.size(); ++a)
                if (fresh[pass][a].digest != refs[pass][a].digest) {
                    run.checksOk = false;
                    run.fail("set-up " + apps[a] +
                             " did not repeat bit-exactly");
                }
    }
    double records = 0.0, v3 = 0.0, etlc = 0.0;
    for (const SuiteRef &r : refs[0]) {
        records += static_cast<double>(r.records);
        v3 += r.v3Bytes;
        etlc += r.etlcBytes;
    }
    run.layer["sim.records"] = records;
    run.layer["trace.etlc_ratio"] = etlc > 0 ? v3 / etlc : 0.0;

    // Timed phase: one op = one app at the paper protocol, then the
    // `deskpar pack` encode of its last trace, round robin.
    Probe &probe = run.probe;
    auto start = Clock::now();
    const std::size_t cycle = 2 * apps.size();
    // Closed loop until the deadline, then to the end of the pass in
    // flight, so every run weighs every app the same.
    for (std::size_t i = 0;
         secondsSince(start) < args.seconds || i % apps.size() != 0;
         ++i) {
        if (i % apps.size() == 0)
            nextRssWindow(run, i);
        // Every other op is traced, flipping every two passes, so each
        // app runs both ways.
        bool traced = args.trace && (i + i / cycle) % 2 == 1;
        obs::setEnabled(traced);
        std::size_t a = i % apps.size();
        unsigned pass = static_cast<unsigned>(i / apps.size());
        OpRecord op;
        op.slot = a;
        op.cycle = pass;
        op.traced = traced;
        auto t0 = Clock::now();
        try {
            apps::AppRunResult result;
            std::string etlcBytes;
            {
                Timed whole(probe, kOp);
                {
                    Timed t(probe, kAppsJob);
                    result = std::move(runner.run(
                        {apps::suiteJob(apps[a], options(pass))})[0]);
                }
                const SuiteRef &ref = refs[pass % 2][a];
                {
                    Timed t(probe, kTraceSort);
                    trace::sortBundle(result.lastBundle);
                }
                std::ostringstream out;
                {
                    Timed t(probe, kTraceEncode, ref.v3Bytes);
                    trace::writeEtlc(result.lastBundle, out);
                }
                etlcBytes = out.str();
            }
            op.ms = msSince(t0);
            op.completed = true;
            const SuiteRef &ref = refs[pass % 2][a];
            SuiteRef got = fingerprint(apps[a], result, etlcBytes);
            op.ok = got.digest == ref.digest && got.inTolerance;
            op.v3Bytes = ref.v3Bytes;
            op.simSeconds = simSeconds[a];
            if (traced)
                probe.work[kAppsJob] += static_cast<double>(got.records);
            if (got.digest != ref.digest)
                run.fail(apps[a] + " did not repeat bit-exactly");
            else if (!got.inTolerance)
                run.fail(apps[a] + " outside the Table II tolerance");
        } catch (const std::exception &e) {
            run.fail(apps[a] + ": " + e.what());
        }
        if (traced) {
            obs::setEnabled(false);
            collectSpans(run);
        }
        run.ops.push_back(op);
    }
    run.wallSeconds = secondsSince(start);
    run.peakRssMb.push_back(peakRssMb("self"));

    const std::vector<std::string> canaryApps(std::begin(kTraceApps),
                                              std::end(kTraceApps));
    checkGolden(
        args, [&] { return suiteDigests(apps, refs, 2); },
        [&] {
            std::vector<SuiteRef> pass =
                suitePass(runner, canaryApps, deriveSeed(kCanarySeed, 0));
            return suiteDigests(canaryApps, &pass, 1);
        },
        run);
}

// ----------------------------------------------------------- trace_cli

enum class Format { Etlc, Etl, Csv };

const char *
formatSuffix(Format f)
{
    switch (f) {
      case Format::Etlc:
        return ".etlc";
      case Format::Etl:
        return ".etl";
      case Format::Csv:
        return ".csv";
    }
    return "";
}

struct TraceFile
{
    std::string path;
    std::string app;
    Format format = Format::Etl;
    double seconds = 0.0;
    double v3Bytes = 0.0;
};

/** FNV-1a over the bytes of @p files, in order. */
std::uint64_t
digestFiles(const std::vector<TraceFile> &files)
{
    std::uint64_t h = fnv1a("");
    for (const TraceFile &f : files)
        h = fnv1a(trace::io::MappedFile::openOrThrow(f.path, "perfbench")
                      .span(),
                  h);
    return h;
}

enum class CliKind : unsigned { Analyze, Query, Bottlenecks, Warm };

struct CliOp
{
    std::size_t file = 0;
    CliKind kind = CliKind::Analyze;
};

/** The 5-spec batch of a cold `deskpar query` op. */
std::vector<std::string>
cliSpecs(const std::string &app)
{
    return {"tlp/app=" + app, "busy/app=" + app + "/by=bucket:1s",
            "csrate", "gpu/app=" + app + "/by=engine",
            "dhist/app=" + app};
}

/** Reference documents of analysis::Service for one request. */
std::string
serviceDocument(analysis::Service &service, const TraceFile &f,
                CliKind kind)
{
    std::ostringstream out;
    analysis::ServiceTraceRequest trace{f.path, f.app, false, kJobs};
    switch (kind) {
      case CliKind::Analyze:
        report::writeAnalyzeDocument(out, service.analyze(trace));
        break;
      case CliKind::Warm: {
        // A warm session's bundle no longer holds the cswitch stream,
        // so the event count is the one field it cannot reproduce.
        analysis::ServiceAnalyzeResult r = service.analyze(trace);
        r.events = 0;
        report::writeAnalyzeDocument(out, r);
        break;
      }
      case CliKind::Query: {
        analysis::ServiceQueryRequest q;
        q.trace = trace;
        q.specs = cliSpecs(f.app);
        report::writeQueryDocument(out, service.query(q));
        break;
      }
      case CliKind::Bottlenecks: {
        analysis::ServiceBottlenecksRequest b;
        b.trace = trace;
        report::writeBottlenecksDocument(out, service.bottlenecks(b));
        break;
      }
    }
    return out.str();
}

/** One cold CLI invocation (or a warm replay), in Service's order. */
std::string
runCliOp(const TraceFile &f, CliKind kind, Probe &probe)
{
    std::ostringstream out;
    if (kind == CliKind::Warm) {
        analysis::OpenOptions options;
        options.prefixes = {f.app};
        options.refreshCache = false;
        analysis::OpenResult opened;
        {
            Timed t(probe, kWarmOpen);
            opened = analysis::openSession(f.path, options);
        }
        if (obs::enabled())
            probe.work[kWarmOpen] += opened.warm ? 1.0 : 0.0;
        analysis::ServiceAnalyzeResult r;
        r.path = f.path;
        r.appPrefix = f.app;
        r.ingest.bytes = fs::file_size(f.path);
        trace::PidSet pids =
            trace::pidsWithPrefix(opened.session->bundle(), f.app);
        {
            Timed t(probe, kAnalyze);
            r.metrics = opened.session->app(pids);
        }
        Timed t(probe, kRender);
        report::writeAnalyzeDocument(out, r);
        return out.str();
    }

    trace::ParseOptions popts;
    popts.source = f.path;
    trace::IngestReport report;
    trace::TraceBundle bundle;
    std::uint64_t fileBytes = 0;
    {
        trace::io::MappedFile file;
        {
            Timed t(probe, kTraceMap);
            file = trace::io::MappedFile::openOrThrow(f.path,
                                                      "perfbench");
        }
        fileBytes = file.size();
        switch (f.format) {
          case Format::Csv: {
            Timed t(probe, kDecodeCsv, f.v3Bytes);
            report = trace::decodeCpuUsageCsv(file.span(), bundle, popts);
            break;
          }
          case Format::Etlc: {
            Timed t(probe, kDecodeEtlc, f.v3Bytes);
            bundle = trace::decodeEtlc(file.span(), popts, report);
            break;
          }
          case Format::Etl: {
            Timed t(probe, kDecodeEtl, f.v3Bytes);
            bundle = trace::decodeEtl(file.span(), popts, report);
            break;
          }
        }
    }
    if (!report.ok())
        throw std::runtime_error(f.path + ": " + report.summary());
    analysis::Session session(std::move(bundle));
    {
        Timed t(probe, kIndexBuild);
        session.index().warm(trace::PidSet{});
    }
    switch (kind) {
      case CliKind::Analyze: {
        analysis::ServiceAnalyzeResult r;
        r.path = f.path;
        r.appPrefix = f.app;
        r.ingest.bytes = fileBytes;
        r.events = session.bundle().totalEvents();
        trace::PidSet pids =
            trace::pidsWithPrefix(session.bundle(), f.app);
        {
            Timed t(probe, kAnalyze);
            r.metrics = session.app(pids);
        }
        Timed t(probe, kRender);
        report::writeAnalyzeDocument(out, r);
        break;
      }
      case CliKind::Query: {
        analysis::ServiceQueryResult r;
        {
            Timed t(probe, kQuery,
                    static_cast<double>(session.bundle().cswitches.size()));
            std::vector<analysis::Query> queries;
            for (const std::string &spec : cliSpecs(f.app))
                queries.push_back(analysis::parseQuerySpec(spec));
            r.results = session.plan(queries).run(kJobs);
        }
        Timed t(probe, kRender);
        report::writeQueryDocument(out, r);
        break;
      }
      case CliKind::Bottlenecks: {
        analysis::ServiceBottlenecksResult r;
        trace::PidSet pids = session.pids(f.app);
        {
            Timed t(probe, kBottlenecks);
            r.report = session.bottlenecks(pids, kJobs);
        }
        Timed t(probe, kRender);
        report::writeBottlenecksDocument(out, r);
        break;
      }
      case CliKind::Warm:
        break;
    }
    return out.str();
}

/** Set-up output of trace_cli: the trace files of one private dir. */
struct CliInputs
{
    std::string dir;
    std::vector<TraceFile> files;
};

/** The traces of the first @p apps of kTraceApps. */
CliInputs
makeCliInputs(const apps::SuiteRunner &runner, std::uint64_t seed,
              std::size_t apps)
{
    CliInputs in;
    in.dir = freshDir("cli");
    const double kSeconds[] = {30.0, 300.0};
    for (std::size_t n = 0; n < apps; ++n) {
        const char *app = kTraceApps[n];
        std::vector<trace::TraceBundle> bundles = simulateTraces(
            runner, {app, app}, {kSeconds[0], kSeconds[1]}, seed + 2 * n);
        for (std::size_t s = 0; s < 2; ++s) {
            const trace::TraceBundle &b = bundles[s];
            std::string stem = in.dir + "/" + app + "-" +
                               std::to_string(int(kSeconds[s]));
            for (Format f : {Format::Etlc, Format::Etl, Format::Csv}) {
                TraceFile file;
                file.path = stem + formatSuffix(f);
                file.app = app;
                file.format = f;
                file.seconds = kSeconds[s];
                if (f == Format::Etlc)
                    trace::writeEtlc(b, file.path);
                else if (f == Format::Etl)
                    trace::writeEtl(b, file.path);
                else
                    trace::writeCpuUsageCsv(b, file.path);
                in.files.push_back(file);
            }
            std::size_t last = in.files.size();
            double v3 = static_cast<double>(
                fs::file_size(in.files[last - 2].path));
            for (std::size_t i = last - 3; i < last; ++i)
                in.files[i].v3Bytes = v3;
            // `deskpar pack --index`: the .dpidx spill beside the .etlc.
            analysis::OpenOptions pack;
            pack.prefixes = {app};
            pack.useCache = false;
            analysis::OpenResult packed =
                analysis::openSession(in.files[last - 3].path, pack);
            if (!packed.wroteCache)
                throw std::runtime_error("no .dpidx written for " +
                                         in.files[last - 3].path);
        }
    }
    return in;
}

/**
 * A fixed, well-mixed op order: every servable (file, kind) pair plus a warm
 * replay of every .etlc, interleaved so any prefix of the cycle mixes
 * sizes, formats and kinds.
 */
std::vector<CliOp>
cliOpOrder(const std::vector<TraceFile> &files)
{
    std::vector<CliOp> ops;
    for (CliKind kind :
         {CliKind::Analyze, CliKind::Query, CliKind::Bottlenecks})
        for (std::size_t f = 0; f < files.size(); ++f)
            // A CPU-Usage CSV has no header, so no CPU count or window:
            // analyze and query refuse it ("unknown CPU count", "empty
            // window"); bottlenecks falls back to the observed extent.
            if (files[f].format != Format::Csv ||
                kind == CliKind::Bottlenecks)
                ops.push_back({f, kind});
    for (std::size_t f = 0; f < files.size(); ++f)
        if (files[f].format == Format::Etlc)
            ops.push_back({f, CliKind::Warm});
    // A stride coprime with the cycle length visits every entry once.
    std::vector<CliOp> order;
    std::size_t stride = 37;
    while (std::gcd(stride, ops.size()) != 1)
        ++stride;
    for (std::size_t i = 0; i < ops.size(); ++i)
        order.push_back(ops[(i * stride) % ops.size()]);
    return order;
}

const char *
cliKindName(CliKind kind)
{
    switch (kind) {
      case CliKind::Analyze:
        return "cold_analyze";
      case CliKind::Query:
        return "cold_query";
      case CliKind::Bottlenecks:
        return "cold_bottlenecks";
      case CliKind::Warm:
        return "warm_analyze";
    }
    return "";
}

/** Golden key of one (file, kind) request: "handbrake-30.etl/cold_query". */
std::string
cliKey(const TraceFile &f, CliKind kind)
{
    return fs::path(f.path).filename().string() + "/" + cliKindName(kind);
}

void
runTraceCli(const Args &args, RunData &run)
{
    apps::SuiteRunner runner(kJobs);
    for (CliKind k : {CliKind::Analyze, CliKind::Query,
                      CliKind::Bottlenecks, CliKind::Warm})
        run.opKinds.push_back(cliKindName(k));

    CliInputs in;
    std::uint64_t digest = 0;
    for (unsigned rep = 0; rep < args.setups; ++rep) {
        auto t0 = Clock::now();
        CliInputs fresh = makeCliInputs(runner, deriveSeed(args.seed, 7),
                                        std::size(kTraceApps));
        run.setupSeconds.push_back(secondsSince(t0));
        std::uint64_t freshDigest = digestFiles(fresh.files);
        if (rep == 0)
            digest = freshDigest;
        else if (freshDigest != digest) {
            run.checksOk = false;
            run.fail("trace_cli set-up did not repeat byte-exactly");
        }
        if (!in.dir.empty())
            fs::remove_all(in.dir);
        in = std::move(fresh);
    }
    double v3 = 0.0, etlc = 0.0;
    for (const TraceFile &f : in.files)
        if (f.format == Format::Etlc) {
            v3 += f.v3Bytes;
            etlc += static_cast<double>(fs::file_size(f.path));
        }
    run.layer["trace.etlc_ratio"] = etlc > 0 ? v3 / etlc : 0.0;

    std::vector<CliOp> order = cliOpOrder(in.files);
    std::vector<std::uint64_t> docHash;
    std::vector<double> docKb;
    Probe &probe = run.probe;
    auto start = Clock::now();
    // Closed loop until the deadline, then to the end of the cycle in
    // flight, so every run has the same op mix.
    for (std::size_t i = 0;
         secondsSince(start) < args.seconds || i % order.size() != 0;
         ++i) {
        if (i % order.size() == 0)
            nextRssWindow(run, i);
        // Every other op is traced, flipping each cycle of the order.
        bool traced = args.trace && (i + i / order.size()) % 2 == 1;
        obs::setEnabled(traced);
        std::size_t slot = i % order.size();
        const CliOp &c = order[slot];
        const TraceFile &f = in.files[c.file];
        OpRecord op;
        op.slot = slot;
        op.cycle = i / order.size();
        op.kind = static_cast<unsigned>(c.kind);
        op.traced = traced;
        std::string doc;
        auto t0 = Clock::now();
        try {
            {
                Timed whole(probe, kOp);
                doc = runCliOp(f, c.kind, probe);
            }
            op.ms = msSince(t0);
            op.completed = true;
            op.v3Bytes = f.v3Bytes;
            op.simSeconds = f.seconds;
        } catch (const std::exception &e) {
            run.fail(f.path + ": " + e.what());
        }
        if (traced) {
            obs::setEnabled(false);
            collectSpans(run);
            docKb.push_back(static_cast<double>(doc.size()) / 1024.0);
        }
        run.ops.push_back(op);
        docHash.push_back(fnv1a(doc));
    }
    run.wallSeconds = secondsSince(start);
    run.layer["report.doc_kb.p50"] = quantile(docKb, 0.5);
    run.peakRssMb.push_back(peakRssMb("self"));

    // Verification (untimed): each document must be byte-equal to the
    // one analysis::Service returns for the same request, and formats
    // that carry the same events must agree with each other.
    // One file at a time, so the Service cache holds one trace.
    std::vector<std::string> refs(order.size());
    {
        analysis::Service service;
        for (std::size_t f = 0; f < in.files.size(); ++f) {
            for (std::size_t slot = 0; slot < order.size(); ++slot)
                if (order[slot].file == f)
                    refs[slot] = serviceDocument(service, in.files[f],
                                                 order[slot].kind);
            service.invalidate(in.files[f].path);
        }
    }
    for (std::size_t i = 0; i < run.ops.size(); ++i) {
        OpRecord &op = run.ops[i];
        op.ok = op.completed && docHash[i] == fnv1a(refs[op.slot]);
        if (op.completed && !op.ok)
            run.fail(in.files[order[op.slot].file].path + " " +
                     cliKindName(order[op.slot].kind) +
                     ": document differs from analysis::Service");
    }
    // .etl and .etlc carry the same events: same query/bottlenecks
    // documents (analyze documents name the file and its size). Each
    // .etl is written right after its .etlc.
    for (std::size_t a = 0; a < order.size(); ++a)
        for (std::size_t b = 0; b < order.size(); ++b)
            if (in.files[order[a].file].format == Format::Etlc &&
                order[b].file == order[a].file + 1 &&
                order[b].kind == order[a].kind &&
                order[a].kind != CliKind::Analyze &&
                order[a].kind != CliKind::Warm && refs[a] != refs[b]) {
                run.checksOk = false;
                run.fail(in.files[order[a].file].path +
                         ": .etl and .etlc documents differ");
            }
    checkGolden(
        args,
        [&] {
            Digests d;
            for (std::size_t slot = 0; slot < order.size(); ++slot)
                d[cliKey(in.files[order[slot].file], order[slot].kind)] =
                    docDigest(refs[slot], in.dir);
            return d;
        },
        [&] {
            CliInputs canary =
                makeCliInputs(runner, deriveSeed(kCanarySeed, 7), 1);
            Digests d;
            analysis::Service service;
            for (const CliOp &c : cliOpOrder(canary.files))
                d[cliKey(canary.files[c.file], c.kind)] =
                    docDigest(serviceDocument(service, canary.files[c.file],
                                              c.kind),
                              canary.dir);
            fs::remove_all(canary.dir);
            return d;
        },
        run);
    fs::remove_all(in.dir);
}

// --------------------------------------------------------------- serve

/** The `deskpar serve` child process; shut down or killed on exit. */
class Daemon
{
  public:
    Daemon() = default;
    ~Daemon() { kill(); }
    Daemon(const Daemon &) = delete;
    Daemon &operator=(const Daemon &) = delete;

    void
    spawn(const std::string &deskpar, const std::string &socket,
          const std::string &log)
    {
        std::vector<std::string> argv = {
            deskpar,     "serve",      socket,          "--workers",
            std::to_string(kJobs),     "--request-jobs", "1",
            "--cache-mb", "2048"};
        std::vector<char *> cargv;
        for (std::string &a : argv)
            cargv.push_back(a.data());
        cargv.push_back(nullptr);
        posix_spawn_file_actions_t actions;
        posix_spawn_file_actions_init(&actions);
        posix_spawn_file_actions_addopen(&actions, 1, log.c_str(),
                                         O_WRONLY | O_CREAT | O_TRUNC,
                                         0644);
        posix_spawn_file_actions_adddup2(&actions, 1, 2);
        int rc = posix_spawn(&pid_, deskpar.c_str(), &actions, nullptr,
                             cargv.data(), environ);
        posix_spawn_file_actions_destroy(&actions);
        if (rc != 0) {
            pid_ = -1;
            throw std::runtime_error("spawn " + deskpar + ": " +
                                     std::strerror(rc));
        }
    }

    /** Connect by retrying until the socket accepts (10 s cap). */
    void
    connect(serve::Client &client, const std::string &socket)
    {
        auto t0 = Clock::now();
        std::string error;
        while (!client.connect(socket, error)) {
            int status = 0;
            if (::waitpid(pid_, &status, WNOHANG) == pid_) {
                pid_ = -1;
                throw std::runtime_error("deskpar serve exited early");
            }
            if (secondsSince(t0) > 10.0)
                throw std::runtime_error("connect: " + error);
            std::this_thread::sleep_for(std::chrono::microseconds(50));
        }
    }

    /** Wait for a shut-down daemon. */
    void
    reap()
    {
        int status = 0;
        if (pid_ > 0 && ::waitpid(pid_, &status, 0) == pid_)
            pid_ = -1;
    }

    std::string pid() const { return std::to_string(pid_); }

    void
    kill()
    {
        if (pid_ <= 0)
            return;
        ::kill(pid_, SIGKILL);
        int status = 0;
        ::waitpid(pid_, &status, 0);
        pid_ = -1;
    }

  private:
    pid_t pid_ = -1;
};

const char *const kSeriesKinds[] = {"tlp", "concurrency", "gpu_util",
                                    "frame_rate"};

/** The 16-query batch of bench_query_fusion, as spec strings. */
std::vector<std::string>
servedSpecs(const std::string &app)
{
    const std::string a = "/app=" + app;
    return {"tlp" + a,
            "busy" + a,
            "tlp" + a + "/by=bucket:250ms",
            "tlp" + a + "/by=bucket:100ms",
            "busy" + a + "/by=bucket:1s",
            "csrate" + a,
            "csrate" + a + "/by=bucket:500ms",
            "dhist" + a,
            "tlp" + a + "/by=phase",
            "gpu" + a,
            "gpu" + a + "/by=engine",
            "tlp",
            "busy",
            "csrate",
            "dhist",
            "tlp" + a + "/cpus=0-3"};
}

struct ServeOp
{
    unsigned kind = 0;
    std::size_t trace = 0;
    unsigned series = 0;
    /** Distinct request (kind, trace, series kind) for the reference. */
    std::size_t key() const { return (kind * 64 + trace) * 4 + series; }
};

/**
 * Length of the request order: every (kind, trace) pairing. No
 * production traffic mix is on record, so each kind runs equally
 * often, one request of each per six; series takes its kind from the
 * trace, so all four are asked for.
 */
constexpr std::uint64_t kServeOrder = 6 * 6;

ServeOp
serveOpAt(std::uint64_t j, std::size_t traces)
{
    ServeOp op;
    op.kind = static_cast<unsigned>(j % 6);
    op.trace = static_cast<std::size_t>((j + j / 6) % traces);
    op.series = op.kind == 2 ? static_cast<unsigned>(op.trace % 4) : 0;
    return op;
}

/** Golden key of one request: "handbrake/query", "word/series:tlp". */
std::string
serveKey(const ServeOp &op, const TraceFile &f)
{
    std::string key = f.app + "/" + kServeKinds[op.kind];
    return op.kind == 2 ? key + ":" + kSeriesKinds[op.series] : key;
}

std::string
jsonString(const std::string &s)
{
    return "\"" + s + "\"";
}

std::string
serveRequest(const ServeOp &op, const TraceFile &f, std::uint64_t id)
{
    std::string head = "{\"op\":" + jsonString(kServeKinds[op.kind]) +
                       ",\"id\":" + std::to_string(id);
    if (op.kind == 5)
        return head + "}";
    head += ",\"trace\":" + jsonString(f.path) +
            ",\"app\":" + jsonString(f.app);
    switch (op.kind) {
      case 0: {
        head += ",\"specs\":[";
        bool first = true;
        for (const std::string &s : servedSpecs(f.app)) {
            head += (first ? "" : ",") + jsonString(s);
            first = false;
        }
        return head + "]}";
      }
      case 1:
        return head + ",\"top\":10}";
      case 2:
        return head + ",\"kind\":" + jsonString(kSeriesKinds[op.series]) +
               ",\"window_ns\":100000000}";
      default:
        return head + "}";
    }
}

/** The in-process analysis::Service document for @p op. */
std::string
servedReference(analysis::Service &service, const ServeOp &op,
                const TraceFile &f)
{
    std::ostringstream out;
    analysis::ServiceTraceRequest trace{f.path, f.app, false, 1};
    switch (op.kind) {
      case 0: {
        analysis::ServiceQueryRequest q;
        q.trace = trace;
        q.specs = servedSpecs(f.app);
        report::writeQueryDocument(out, service.query(q));
        break;
      }
      case 1: {
        analysis::ServiceBottlenecksRequest b;
        b.trace = trace;
        b.top = 10;
        report::writeBottlenecksDocument(out, service.bottlenecks(b));
        break;
      }
      case 2: {
        analysis::ServiceSeriesRequest s;
        s.trace = trace;
        s.kind = static_cast<analysis::ServiceSeriesKind>(op.series);
        s.window = 100000000;
        report::writeSeriesDocument(out, service.series(s));
        break;
      }
      case 3: {
        analysis::ServiceFramesRequest fr;
        fr.trace = trace;
        report::writeFramesDocument(out, service.frames(fr));
        break;
      }
      case 4:
        report::writeAnalyzeDocument(out, service.analyze(trace));
        break;
      default:
        out << "{\"schema\":" << report::kSchemaVersion
            << ",\"command\":\"ping\"}";
    }
    return out.str();
}

bool
callDocument(serve::Client &client, const std::string &request,
             std::string &doc, std::string &error)
{
    std::string response;
    if (!client.call(request, response, error))
        return false;
    if (!serve::extractResult(response, doc)) {
        error = "error response: " + response.substr(0, 200);
        return false;
    }
    return true;
}

serve::JsonValue
daemonStats(serve::Client &client)
{
    std::string doc, error;
    if (!callDocument(client, "{\"op\":\"stats\"}", doc, error))
        throw std::runtime_error("stats: " + error);
    serve::JsonValue value;
    if (!serve::parseJson(doc, value, error))
        throw std::runtime_error("stats: " + error);
    return value;
}

double
cacheCounter(const serve::JsonValue &stats, const char *name)
{
    const serve::JsonValue *cache = stats.find("cache");
    return cache ? cache->numberOr(name, 0.0) : 0.0;
}

struct ServeSetup
{
    std::string dir;
    std::vector<TraceFile> traces;
    std::unique_ptr<Daemon> daemon;
    std::vector<std::unique_ptr<serve::Client>> clients;
};

ServeSetup
setUpServe(const Args &args, const apps::SuiteRunner &runner)
{
    ServeSetup s;
    s.dir = freshDir("serve");
    std::vector<std::string> apps(std::begin(kTraceApps),
                                  std::end(kTraceApps));
    std::vector<trace::TraceBundle> bundles =
        simulateTraces(runner, apps, std::vector<double>(apps.size(), 300.0),
                       deriveSeed(args.seed, 9));
    for (std::size_t i = 0; i < apps.size(); ++i) {
        TraceFile f;
        f.path = s.dir + "/" + apps[i] + "-300.etlc";
        f.app = apps[i];
        f.format = Format::Etlc;
        f.seconds = 300.0;
        f.v3Bytes = static_cast<double>(v3Bytes(bundles[i]));
        trace::writeEtlc(bundles[i], f.path);
        s.traces.push_back(f);
    }
    bundles.clear();

    const std::string socket = s.dir + "/serve.sock";
    s.daemon = std::make_unique<Daemon>();
    s.daemon->spawn(args.deskpar, socket, s.dir + "/serve.log");
    for (unsigned c = 0; c < kJobs; ++c) {
        s.clients.push_back(std::make_unique<serve::Client>());
        s.daemon->connect(*s.clients.back(), socket);
    }
    // Preload: one analyze per trace ingests it into the daemon cache.
    for (const TraceFile &f : s.traces) {
        std::string doc, error;
        ServeOp op;
        op.kind = 4;
        if (!callDocument(*s.clients[0], serveRequest(op, f, 0), doc, error))
            throw std::runtime_error("preload " + f.path + ": " + error);
    }
    return s;
}

void
shutDown(ServeSetup &s)
{
    std::string doc, error;
    if (!s.clients.empty())
        callDocument(*s.clients[0], "{\"op\":\"shutdown\"}", doc, error);
    s.clients.clear();
    if (s.daemon)
        s.daemon->reap();
    s.daemon.reset();
}

void
runServe(const Args &args, RunData &run)
{
    apps::SuiteRunner runner(kJobs);
    run.concurrent = true;
    for (const char *k : kServeKinds)
        run.opKinds.push_back(std::string("serve_") + k);

    ServeSetup s;
    for (unsigned rep = 0; rep < args.setups; ++rep) {
        auto t0 = Clock::now();
        ServeSetup fresh = setUpServe(args, runner);
        run.setupSeconds.push_back(secondsSince(t0));
        if (rep > 0) {
            if (digestFiles(fresh.traces) != digestFiles(s.traces)) {
                run.checksOk = false;
                run.fail("serve set-up did not repeat byte-exactly");
            }
            shutDown(s);
            fs::remove_all(s.dir);
        }
        s = std::move(fresh);
    }
    double v3 = 0.0, etlc = 0.0;
    for (const TraceFile &f : s.traces) {
        v3 += f.v3Bytes;
        etlc += static_cast<double>(fs::file_size(f.path));
    }
    run.layer["trace.etlc_ratio"] = etlc > 0 ? v3 / etlc : 0.0;
    serve::JsonValue before = daemonStats(*s.clients[0]);
    resetPeakRss(s.daemon->pid());

    struct Done
    {
        ServeOp op;
        OpRecord rec;
        std::uint64_t hash = 0;
        double docKb = 0.0;
    };
    // Op indices are handed out until the deadline has passed and a
    // whole cycle of the request order is done.
    auto start = Clock::now();
    std::mutex dispenser;
    std::uint64_t next = 0;
    bool closed = false;
    auto take = [&](std::uint64_t &j) {
        std::lock_guard<std::mutex> lock(dispenser);
        if (!closed && next % kServeOrder == 0 &&
            secondsSince(start) >= args.seconds)
            closed = true;
        j = next++;
        return !closed;
    };
    std::vector<std::vector<Done>> done(kJobs);
    std::vector<Probe> probes(kJobs);
    std::vector<std::string> errors(kJobs);
    auto client = [&](unsigned c) {
        std::uint64_t j = 0;
        while (take(j)) {
            Done d;
            d.op = serveOpAt(j, s.traces.size());
            const TraceFile &f = s.traces[d.op.trace];
            d.rec.kind = d.op.kind;
            d.rec.slot = static_cast<std::size_t>(j % kServeOrder);
            d.rec.cycle = static_cast<std::size_t>(j / kServeOrder);
            d.rec.traced = obs::enabled();
            std::string request = serveRequest(d.op, f, j + 1);
            std::string doc, error;
            auto t0 = Clock::now();
            bool ok;
            {
                Timed t(probes[c], kServeRequest);
                ok = callDocument(*s.clients[c], request, doc, error);
            }
            d.rec.ms = msSince(t0);
            d.rec.endS = secondsSince(start);
            d.rec.completed = ok;
            if (!ok && errors[c].empty())
                errors[c] = error;
            if (d.op.kind != 5) {
                d.rec.v3Bytes = f.v3Bytes;
                d.rec.simSeconds = f.seconds;
            }
            d.hash = fnv1a(doc);
            d.docKb = static_cast<double>(doc.size()) / 1024.0;
            done[c].push_back(d);
        }
    };
    std::vector<std::thread> threads;
    for (unsigned c = 0; c < kJobs; ++c)
        threads.emplace_back(client, c);
    // Traced runs alternate 250 ms blocks with recording on and off.
    bool traced = false;
    auto block = Clock::now();
    for (;;) {
        std::this_thread::sleep_for(std::chrono::milliseconds(5));
        {
            std::lock_guard<std::mutex> lock(dispenser);
            if (closed)
                break;
        }
        if (args.trace && secondsSince(block) >= 0.25) {
            traced = !traced;
            obs::setEnabled(traced);
            block = Clock::now();
            collectSpans(run);
        }
    }
    for (std::thread &t : threads)
        t.join();
    run.wallSeconds = secondsSince(start);
    run.peakRssMb.push_back(peakRssMb(s.daemon->pid()));
    obs::setEnabled(false);
    collectSpans(run);
    for (const std::string &e : errors)
        if (!e.empty())
            run.fail(e);

    serve::JsonValue after = daemonStats(*s.clients[0]);
    shutDown(s);

    // Verification (untimed): every served document byte-equals the
    // in-process analysis::Service document for the same request.
    std::map<std::size_t, std::string> refs;
    {
        analysis::Service service;
        for (std::uint64_t j = 0; j < kServeOrder; ++j) {
            ServeOp op = serveOpAt(j, s.traces.size());
            refs[op.key()] =
                servedReference(service, op, s.traces[op.trace]);
        }
    }
    std::map<std::size_t, std::vector<double>> rtt;
    std::vector<double> docKb;
    for (unsigned c = 0; c < kJobs; ++c)
        for (Done &d : done[c]) {
            d.rec.ok = d.rec.completed && d.hash == fnv1a(refs[d.op.key()]);
            if (d.rec.completed && !d.rec.ok)
                run.fail(std::string(kServeKinds[d.op.kind]) + " " +
                         s.traces[d.op.trace].path +
                         ": served document differs");
            run.ops.push_back(d.rec);
            // The daemon's own per-kind p50 covers every request, so
            // the round trip it is compared with does too.
            if (d.rec.completed)
                rtt[d.op.kind].push_back(d.rec.ms);
            if (d.rec.traced)
                docKb.push_back(d.docKb);
        }
    checkGolden(
        args,
        [&] {
            Digests d;
            for (std::uint64_t j = 0; j < kServeOrder; ++j) {
                ServeOp op = serveOpAt(j, s.traces.size());
                d[serveKey(op, s.traces[op.trace])] =
                    docDigest(refs[op.key()], s.dir);
            }
            return d;
        },
        [&] {
            std::string dir = freshDir("canary");
            TraceFile f;
            f.path = dir + "/" + kTraceApps[0] + "-300.etlc";
            f.app = kTraceApps[0];
            trace::writeEtlc(simulateTraces(runner, {f.app}, {300.0},
                                            deriveSeed(kCanarySeed, 9))[0],
                             f.path);
            Digests d;
            analysis::Service service;
            for (std::uint64_t j = 0; j < kServeOrder; ++j) {
                ServeOp op = serveOpAt(j, std::size(kTraceApps));
                if (op.trace == 0)
                    d[serveKey(op, f)] = docDigest(
                        servedReference(service, op, f), dir);
            }
            fs::remove_all(dir);
            return d;
        },
        run);
    for (const Probe &p : probes)
        run.probe.merge(p);

    // Per-layer view of the daemon: its own stats op.
    run.layer["report.doc_kb.p50"] = quantile(docKb, 0.5);
    double hits = cacheCounter(after, "hits") - cacheCounter(before, "hits");
    double misses =
        cacheCounter(after, "misses") - cacheCounter(before, "misses");
    run.layer["analysis.session_cache.hit_ratio"] =
        hits + misses > 0 ? hits / (hits + misses) : 0.0;
    run.layer["analysis.session_cache.evictions"] =
        cacheCounter(after, "evictions") - cacheCounter(before, "evictions");
    run.layer["analysis.session_cache.resident_mb"] =
        cacheCounter(after, "resident_bytes") / (1024.0 * 1024.0);
    run.layer["serve.self_tlp"] = after.numberOr("self_tlp", 0.0);
    const serve::JsonValue *requests = after.find("requests");
    double waitSum = 0.0, waitN = 0.0;
    for (unsigned k = 0; k < 6; ++k) {
        std::string base = std::string("serve.") + kServeKinds[k];
        double rttP50 = quantile(rtt[k], 0.5);
        double server = 0.0;
        if (requests)
            if (const serve::JsonValue *op = requests->find(kServeKinds[k]))
                server = op->numberOr("p50_ms", 0.0);
        run.layer[base + ".rtt_ms.p50"] = rttP50;
        run.layer[base + ".server_ms.p50"] = server;
        if (!rtt[k].empty()) {
            double n = static_cast<double>(rtt[k].size());
            waitSum += (rttP50 - server) * n;
            waitN += n;
        }
    }
    run.layer["serve.wait_ms.p50"] = waitN > 0 ? waitSum / waitN : 0.0;
    fs::remove_all(s.dir);
}

// ---------------------------------------------------------------- main

bool
parseArgs(int argc, char **argv, Args &args)
{
    for (int i = 1; i + 1 < argc; i += 2) {
        std::string key = argv[i], value = argv[i + 1];
        if (key == "--workload")
            args.workload = value;
        else if (key == "--seed")
            args.seed = std::stoull(value);
        else if (key == "--seconds")
            args.seconds = std::stod(value);
        else if (key == "--trace")
            args.trace = value == "1";
        else if (key == "--deskpar")
            args.deskpar = value;
        else if (key == "--workdir")
            args.workdir = value;
        else if (key == "--setups")
            args.setups = static_cast<unsigned>(std::stoul(value));
        else if (key == "--golden")
            args.golden = value;
        else if (key == "--golden-out")
            args.goldenOut = value;
        else
            return false;
    }
    return argc % 2 == 1 && !args.workload.empty() &&
           !args.workdir.empty() && args.setups > 0 &&
           args.seconds > 0 &&
           args.golden.empty() != args.goldenOut.empty();
}

} // namespace

int
main(int argc, char **argv)
{
    Args args;
    try {
        if (!parseArgs(argc, argv, args)) {
            std::fprintf(stderr,
                         "usage: perfbench_driver --workload W --seed N "
                         "--seconds S --trace 0|1 --deskpar PATH "
                         "--workdir DIR [--setups K] "
                         "(--golden FILE | --golden-out FILE)\n");
            return 2;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: bad argument: %s\n", e.what());
        return 2;
    }
    // Pin every pool (decoders, runner, daemon) to the thread budget;
    // the default would be every host core.
    ::setenv("DESKPAR_JOBS", std::to_string(kJobs).c_str(), 1);
    obs::setEnabled(false);

    RunData run;
    try {
        fs::create_directories(args.workdir);
        fs::current_path(args.workdir);
        if (args.workload == "suite")
            runSuite(args, run);
        else if (args.workload == "trace_cli")
            runTraceCli(args, run);
        else if (args.workload == "serve")
            runServe(args, run);
        else {
            std::fprintf(stderr, "perfbench: unknown workload '%s'\n",
                         args.workload.c_str());
            return 2;
        }
    } catch (const std::exception &e) {
        std::fprintf(stderr, "perfbench: %s: %s\n", args.workload.c_str(),
                     e.what());
        return 1;
    }

    std::uint64_t failed = 0;
    for (OpRecord &op : run.ops) {
        op.ok = op.ok && run.goldenOk;
        failed += op.ok ? 0 : 1;
    }
    for (const std::string &why : run.failures)
        std::fprintf(stderr, "perfbench: FAILED %s\n", why.c_str());
    if (run.ops.empty()) {
        std::fprintf(stderr, "perfbench: no op completed\n");
        return 1;
    }
    Metrics metrics;
    if (args.trace)
        writePerLayer(run, metrics);
    else
        writeEndToEnd(run, metrics);
    printResult(run.checksOk && failed == 0, run.ops.size(), failed,
                metrics);
    return 0;
}

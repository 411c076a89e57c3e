#include "report/documents.hh"

#include <algorithm>
#include <ostream>

#include "report/json.hh"
#include "sim/types.hh"

namespace deskpar::report {

namespace {

/** "schema" + "command" + shared ingest flags, object left open. */
JsonWriter &
beginDocument(JsonWriter &json, const char *command)
{
    json.beginObject()
        .field("schema", kSchemaVersion)
        .field("command", std::string(command));
    return json;
}

/**
 * Degraded-ingest marker. Deliberately NOT the lease's warm flag or
 * wall-clock ingest rate: documents contain only deterministic
 * fields, which is what lets a served response be byte-identical to
 * the equivalent CLI invocation regardless of cache state.
 */
void
ingestFlags(JsonWriter &json, bool degraded,
            const std::string &degradedSummary)
{
    json.field("degraded", degraded);
    if (degraded)
        json.field("degraded_summary", degradedSummary);
}

void
renderAnalyze(JsonWriter &json,
              const analysis::ServiceAnalyzeResult &r)
{
    beginDocument(json, "analyze")
        .field("trace", r.path)
        .field("app", r.appPrefix)
        .field("status", std::string("ok"));
    ingestFlags(json, r.degraded, r.degradedSummary);
    json.field("bytes", r.ingest.bytes)
        .field("events", r.events)
        // Metric field names as the pre-unification writeJson
        // emitter spelled them, so the per-trace record is a strict
        // superset of the old document.
        .field("tlp", r.metrics.tlp())
        .field("gpu_util_percent", r.metrics.gpuUtilPercent())
        .field("gpu_aggregate_ratio", r.metrics.gpu.aggregateRatio)
        .field("gpu_busy_ratio", r.metrics.gpu.busyRatio)
        .field("gpu_overlapped", r.metrics.gpu.overlapped)
        .field("idle_fraction",
               r.metrics.concurrency.idleFraction())
        .field("max_concurrency",
               std::uint64_t(r.metrics.concurrency.maxConcurrency()))
        .field("avg_fps", r.metrics.frames.avgFps)
        .field("frames", std::uint64_t(r.metrics.frames.frames));
    json.beginArray("c");
    for (double c : r.metrics.concurrency.c)
        json.value(c);
    json.endArray();
    json.endObject();
}

void
renderQuery(JsonWriter &json,
            const analysis::ServiceQueryResult &r)
{
    beginDocument(json, "query");
    ingestFlags(json, r.degraded, r.degradedSummary);
    if (!r.explainText.empty())
        json.field("explain", r.explainText);
    json.beginArray("queries");
    for (const analysis::QueryResult &result : r.results) {
        json.beginObject()
            .field("query", result.query.label)
            .field("metric",
                   std::string(analysis::queryMetricName(
                       result.query.metric)));
        json.beginArray("rows");
        for (const analysis::QueryRow &row : result.rows) {
            json.beginObject().field("key", row.key);
            // Timestamp/value precision as the old writeQueryJson:
            // %.9g seconds, %.17g values (lossless round trip). A
            // bucket row's t0 is the t1 just written, so the writer
            // formats each shared edge once.
            json.key("t0").valueSeconds(row.t0);
            json.key("t1").valueSeconds(row.t1);
            if (row.pid != 0)
                json.field("pid", std::uint64_t(row.pid));
            if (row.tid != 0)
                json.field("tid", std::uint64_t(row.tid));
            json.key("value").value(row.value, 17);
            if (!row.histogram.empty()) {
                json.beginArray("histogram");
                for (std::uint64_t count : row.histogram)
                    json.value(count);
                json.endArray();
            }
            json.endObject();
        }
        json.endArray();
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

void
renderBottlenecks(JsonWriter &json,
                  const analysis::ServiceBottlenecksResult &r)
{
    const analysis::blocking::BlockingReport &report = r.report;
    auto ms = [](std::uint64_t ns) {
        return static_cast<double>(ns) / 1e6;
    };

    beginDocument(json, "bottlenecks");
    ingestFlags(json, r.degraded, r.degradedSummary);
    // Field names and 3-decimal formatting of the pre-unification
    // multi-line report, so its scrapers only need to tolerate the
    // one-line envelope.
    json.key("window_s").valueFixed(report.windowSeconds(), 3);
    json.field("num_cpus", std::uint64_t(report.numCpus))
        .field("dispatches", report.dispatches);
    json.key("run_ms").valueFixed(ms(report.totalRunNs), 3);
    json.key("wait_ms").valueFixed(ms(report.totalWaitNs), 3);
    json.key("wait_tlp").valueFixed(report.waitTlp(), 3);
    json.key("critical_path_ms")
        .valueFixed(ms(report.criticalPathNs), 3);
    json.field("critical_path_switches", report.criticalPathSwitches);
    json.key("serial_fraction").valueFixed(report.serialFraction(), 3);
    json.field("classification",
               std::string(report.classification()));

    json.beginArray("threads");
    std::size_t count = std::min(r.top, report.threads.size());
    for (std::size_t i = 0; i < count; ++i) {
        const analysis::blocking::ThreadBlocking &t =
            report.threads[i];
        json.beginObject()
            .field("pid", std::uint64_t(t.pid))
            .field("tid", std::uint64_t(t.tid))
            .field("name", t.name);
        json.key("run_ms").valueFixed(ms(t.runNs), 3);
        json.key("wait_ms").valueFixed(ms(t.waitNs), 3);
        json.key("max_wait_ms").valueFixed(ms(t.maxWaitNs), 3);
        json.key("blocked_behind_ms").valueFixed(ms(t.blockedNs), 3);
        json.field("dispatches", t.dispatches);
        json.endObject();
    }
    json.endArray();

    json.beginArray("edges");
    count = std::min(r.top, report.edges.size());
    for (std::size_t i = 0; i < count; ++i) {
        const analysis::blocking::WakeupEdge &e = report.edges[i];
        json.beginObject()
            .field("from_pid", std::uint64_t(e.fromPid))
            .field("from_tid", std::uint64_t(e.fromTid))
            .field("to_pid", std::uint64_t(e.toPid))
            .field("to_tid", std::uint64_t(e.toTid))
            .field("count", e.count);
        json.key("wait_ms").valueFixed(ms(e.waitNs), 3);
        json.endObject();
    }
    json.endArray();

    json.beginArray("critical_path");
    for (const analysis::blocking::CriticalPathHop &hop :
         report.criticalPath) {
        json.beginObject()
            .field("pid", std::uint64_t(hop.pid))
            .field("tid", std::uint64_t(hop.tid))
            .endObject();
    }
    json.endArray();
    json.endObject();
}

void
renderSeries(JsonWriter &json,
             const analysis::ServiceSeriesResult &r)
{
    beginDocument(json, "series")
        .field("kind",
               std::string(analysis::serviceSeriesKindName(r.kind)))
        .field("name", r.series.name);
    ingestFlags(json, r.degraded, r.degradedSummary);
    json.key("window_s").valueSeconds(r.series.window);
    json.beginArray("points");
    for (const analysis::TimePoint &point : r.series.points) {
        json.beginObject();
        json.key("t").valueSeconds(point.t);
        json.key("value").value(point.value, 17);
        json.endObject();
    }
    json.endArray();
    json.endObject();
}

void
renderFrames(JsonWriter &json,
             const analysis::ServiceFramesResult &r)
{
    beginDocument(json, "frames");
    ingestFlags(json, r.degraded, r.degradedSummary);
    json.field("frames", std::uint64_t(r.frames.frames))
        .field("synthesized_frames",
               std::uint64_t(r.frames.synthesizedFrames))
        .field("avg_fps", r.frames.avgFps)
        .field("fps_stddev", r.frames.fpsStddev)
        .field("one_percent_low_fps", r.frames.onePercentLowFps)
        .field("synthesized_share", r.frames.synthesizedShare());
    json.endObject();
}

} // namespace

void
writeAnalyzeDocument(std::ostream &out,
                     const analysis::ServiceAnalyzeResult &r)
{
    JsonWriter json(out);
    renderAnalyze(json, r);
}

void
writeAnalyzeDocument(std::string &out,
                     const analysis::ServiceAnalyzeResult &r)
{
    JsonWriter json(out);
    renderAnalyze(json, r);
}

void
writeAnalyzeFailureDocument(std::ostream &out, const std::string &path,
                            const std::string &error)
{
    JsonWriter json(out);
    beginDocument(json, "analyze")
        .field("trace", path)
        .field("status", std::string("failed"))
        .field("error", error);
    json.endObject();
}

void
writeQueryDocument(std::ostream &out,
                   const analysis::ServiceQueryResult &r)
{
    JsonWriter json(out);
    renderQuery(json, r);
}

void
writeQueryDocument(std::string &out,
                   const analysis::ServiceQueryResult &r)
{
    JsonWriter json(out);
    renderQuery(json, r);
}

void
writeBottlenecksDocument(std::ostream &out,
                         const analysis::ServiceBottlenecksResult &r)
{
    JsonWriter json(out);
    renderBottlenecks(json, r);
}

void
writeBottlenecksDocument(std::string &out,
                         const analysis::ServiceBottlenecksResult &r)
{
    JsonWriter json(out);
    renderBottlenecks(json, r);
}

void
writeSeriesDocument(std::ostream &out,
                    const analysis::ServiceSeriesResult &r)
{
    JsonWriter json(out);
    renderSeries(json, r);
}

void
writeSeriesDocument(std::string &out,
                    const analysis::ServiceSeriesResult &r)
{
    JsonWriter json(out);
    renderSeries(json, r);
}

void
writeFramesDocument(std::ostream &out,
                    const analysis::ServiceFramesResult &r)
{
    JsonWriter json(out);
    renderFrames(json, r);
}

void
writeFramesDocument(std::string &out,
                    const analysis::ServiceFramesResult &r)
{
    JsonWriter json(out);
    renderFrames(json, r);
}

} // namespace deskpar::report

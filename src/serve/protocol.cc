#include "serve/protocol.hh"

#include <cmath>

#include "report/documents.hh"
#include "report/json.hh"
#include "serve/json_value.hh"

namespace deskpar::serve {

namespace {

/** Positive integral number member, with range/type validation. */
bool
getCount(const JsonValue &object, const char *key,
         std::uint64_t &out, std::string &error)
{
    const JsonValue *v = object.find(key);
    if (!v)
        return true; // optional; caller keeps the default
    if (!v->isNumber() || v->number() < 0 ||
        v->number() != std::floor(v->number()) ||
        v->number() > 9e15) {
        error = std::string("field '") + key +
                "' must be a non-negative integer";
        return false;
    }
    out = static_cast<std::uint64_t>(v->number());
    return true;
}

} // namespace

const char *
requestOpName(RequestOp op)
{
    switch (op) {
      case RequestOp::Ping:
        return "ping";
      case RequestOp::Stats:
        return "stats";
      case RequestOp::Shutdown:
        return "shutdown";
      case RequestOp::Analyze:
        return "analyze";
      case RequestOp::Query:
        return "query";
      case RequestOp::Bottlenecks:
        return "bottlenecks";
      case RequestOp::Series:
        return "series";
      case RequestOp::Frames:
        return "frames";
    }
    return "ping";
}

bool
parseRequest(const std::string &line, Request &out, std::string &error)
{
    JsonValue root;
    if (!parseJson(line, root, error))
        return false;
    if (!root.isObject()) {
        error = "request must be a JSON object";
        return false;
    }

    const JsonValue *op = root.find("op");
    if (!op || !op->isString()) {
        error = "missing string field 'op'";
        return false;
    }
    const std::string &name = op->string();
    if (name == "ping") {
        out.op = RequestOp::Ping;
    } else if (name == "stats") {
        out.op = RequestOp::Stats;
    } else if (name == "shutdown") {
        out.op = RequestOp::Shutdown;
    } else if (name == "analyze") {
        out.op = RequestOp::Analyze;
    } else if (name == "query") {
        out.op = RequestOp::Query;
    } else if (name == "bottlenecks") {
        out.op = RequestOp::Bottlenecks;
    } else if (name == "series") {
        out.op = RequestOp::Series;
    } else if (name == "frames") {
        out.op = RequestOp::Frames;
    } else {
        error = "unknown op '" + name + "'";
        return false;
    }

    if (!getCount(root, "id", out.id, error))
        return false;

    bool wantsTrace = out.op == RequestOp::Analyze ||
                      out.op == RequestOp::Query ||
                      out.op == RequestOp::Bottlenecks ||
                      out.op == RequestOp::Series ||
                      out.op == RequestOp::Frames;
    if (!wantsTrace)
        return true;

    const JsonValue *trace = root.find("trace");
    if (!trace || !trace->isString() || trace->string().empty()) {
        error = std::string("op '") + name +
                "' needs a string field 'trace'";
        return false;
    }
    out.trace.path = trace->string();
    out.trace.appPrefix = root.stringOr("app", "");
    out.trace.lenient = root.boolOr("lenient", false);

    if (out.op == RequestOp::Query) {
        const JsonValue *specs = root.find("specs");
        if (!specs || !specs->isArray() || specs->array().empty()) {
            error = "op 'query' needs a non-empty array 'specs'";
            return false;
        }
        for (const JsonValue &spec : specs->array()) {
            if (!spec.isString()) {
                error = "'specs' entries must be strings";
                return false;
            }
            out.specs.push_back(spec.string());
        }
        out.explain = root.boolOr("explain", false);
    }

    if (out.op == RequestOp::Bottlenecks) {
        std::uint64_t top = out.top;
        if (!getCount(root, "top", top, error))
            return false;
        out.top = static_cast<std::size_t>(top);
    }

    if (out.op == RequestOp::Series) {
        std::string kind = root.stringOr("kind", "tlp");
        if (kind == "tlp") {
            out.seriesKind = analysis::ServiceSeriesKind::Tlp;
        } else if (kind == "concurrency") {
            out.seriesKind =
                analysis::ServiceSeriesKind::Concurrency;
        } else if (kind == "gpu_util") {
            out.seriesKind = analysis::ServiceSeriesKind::GpuUtil;
        } else if (kind == "frame_rate") {
            out.seriesKind = analysis::ServiceSeriesKind::FrameRate;
        } else {
            error = "unknown series kind '" + kind + "'";
            return false;
        }
        std::uint64_t window = 0;
        if (!getCount(root, "window_ns", window, error))
            return false;
        if (window == 0) {
            error = "op 'series' needs a positive 'window_ns'";
            return false;
        }
        out.window = window;
    }
    return true;
}

void
beginSuccessEnvelope(std::string &out, std::uint64_t id,
                     const std::vector<trace::Diagnostic> &diagnostics)
{
    report::JsonWriter json(out);
    json.beginObject()
        .field("schema", report::kSchemaVersion)
        .field("id", id)
        .field("ok", true);
    json.beginArray("diagnostics");
    for (const trace::Diagnostic &d : diagnostics) {
        json.beginObject()
            .field("severity",
                   std::string(trace::severityName(d.severity)))
            .field("component", d.component)
            .field("message", d.detail.str())
            .endObject();
    }
    json.endArray();
    json.endObject();
    // The result document is the LAST member, spliced in verbatim so
    // extractResult can return it byte-exactly (the writer would
    // re-escape it as a string): reopen the object by hand.
    out.pop_back(); // trailing '}'
    out += ",\"result\":";
}

std::string
errorEnvelope(std::uint64_t id, const std::string &kind,
              const std::string &message)
{
    std::string out;
    report::JsonWriter json(out);
    json.beginObject()
        .field("schema", report::kSchemaVersion)
        .field("id", id)
        .field("ok", false);
    json.key("error");
    json.beginObject()
        .field("kind", kind)
        .field("message", message)
        .endObject();
    json.endObject();
    return out;
}

bool
extractResult(const std::string &envelope, std::string &document)
{
    // Scan the top level of the envelope object tracking string /
    // escape state and nesting depth; the "result" key at depth 1 is
    // the document. This cannot be spoofed by escaped content inside
    // string values (they never leave inString state).
    if (envelope.empty() || envelope.front() != '{')
        return false;
    int depth = 0;
    bool inString = false;
    bool escaped = false;
    const std::string marker = "\"result\":";
    for (std::size_t i = 0; i < envelope.size(); ++i) {
        char c = envelope[i];
        if (inString) {
            if (escaped)
                escaped = false;
            else if (c == '\\')
                escaped = true;
            else if (c == '"')
                inString = false;
            continue;
        }
        if (c == '"') {
            if (depth == 1 &&
                envelope.compare(i, marker.size(), marker) == 0) {
                std::size_t start = i + marker.size();
                // The value runs to the envelope's closing brace.
                if (start >= envelope.size() ||
                    envelope.back() != '}')
                    return false;
                document =
                    envelope.substr(start,
                                    envelope.size() - 1 - start);
                return !document.empty();
            }
            inString = true;
            continue;
        }
        if (c == '{' || c == '[')
            ++depth;
        else if (c == '}' || c == ']')
            --depth;
    }
    return false;
}

} // namespace deskpar::serve

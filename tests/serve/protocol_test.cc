/**
 * @file
 * The serve wire protocol: request decoding, response envelopes, and
 * the byte-exact result extraction the client uses to diff served
 * output against the CLI.
 */

#include <gtest/gtest.h>

#include <string>
#include <vector>

#include "serve/json_value.hh"
#include "serve/protocol.hh"
#include "trace/diagnostic.hh"

namespace {

using namespace deskpar;
using namespace deskpar::serve;

Request
requestOk(const std::string &line)
{
    Request request;
    std::string error;
    EXPECT_TRUE(parseRequest(line, request, error)) << error;
    return request;
}

std::string
requestFail(const std::string &line)
{
    Request request;
    std::string error;
    EXPECT_FALSE(parseRequest(line, request, error)) << line;
    EXPECT_FALSE(error.empty());
    return error;
}

TEST(Protocol, ParsesEveryOp)
{
    EXPECT_EQ(requestOk(R"({"op":"ping"})").op, RequestOp::Ping);
    EXPECT_EQ(requestOk(R"({"op":"stats"})").op, RequestOp::Stats);
    EXPECT_EQ(requestOk(R"({"op":"shutdown"})").op,
              RequestOp::Shutdown);
    EXPECT_EQ(requestOk(R"({"op":"analyze","trace":"t.etl"})").op,
              RequestOp::Analyze);
    EXPECT_EQ(
        requestOk(R"({"op":"query","trace":"t.etl","specs":["tlp"]})")
            .op,
        RequestOp::Query);
    EXPECT_EQ(requestOk(R"({"op":"bottlenecks","trace":"t.etl"})").op,
              RequestOp::Bottlenecks);
    EXPECT_EQ(requestOk(
                  R"({"op":"series","trace":"t.etl","window_ns":1})")
                  .op,
              RequestOp::Series);
    EXPECT_EQ(requestOk(R"({"op":"frames","trace":"t.etl"})").op,
              RequestOp::Frames);
}

TEST(Protocol, DecodesTraceFieldsAndDefaults)
{
    Request r = requestOk(
        R"({"op":"query","id":42,"trace":"a.etl","app":"hand",)"
        R"("lenient":true,"specs":["tlp","gpu.util"],)"
        R"("explain":true})");
    EXPECT_EQ(r.id, 42u);
    EXPECT_EQ(r.trace.path, "a.etl");
    EXPECT_EQ(r.trace.appPrefix, "hand");
    EXPECT_TRUE(r.trace.lenient);
    ASSERT_EQ(r.specs.size(), 2u);
    EXPECT_EQ(r.specs[1], "gpu.util");
    EXPECT_TRUE(r.explain);

    Request d = requestOk(R"({"op":"analyze","trace":"a.etl"})");
    EXPECT_EQ(d.id, 0u);
    EXPECT_FALSE(d.trace.lenient);
    EXPECT_TRUE(d.trace.appPrefix.empty());
}

TEST(Protocol, DecodesPerOpFields)
{
    Request b = requestOk(
        R"({"op":"bottlenecks","trace":"a.etl","top":3})");
    EXPECT_EQ(b.top, 3u);
    EXPECT_EQ(requestOk(R"({"op":"bottlenecks","trace":"a.etl"})").top,
              10u);

    Request s = requestOk(
        R"({"op":"series","trace":"a.etl","kind":"gpu_util",)"
        R"("window_ns":250000})");
    EXPECT_EQ(s.seriesKind, analysis::ServiceSeriesKind::GpuUtil);
    EXPECT_EQ(s.window, 250000);
    EXPECT_EQ(requestOk(
                  R"({"op":"series","trace":"a.etl","window_ns":1})")
                  .seriesKind,
              analysis::ServiceSeriesKind::Tlp);
}

TEST(Protocol, RejectsMalformedRequests)
{
    requestFail("not json");
    requestFail("[1,2]");                       // not an object
    requestFail(R"({"id":1})");                 // missing op
    requestFail(R"({"op":"launch_missiles"})"); // unknown op
    requestFail(R"({"op":"analyze"})");         // missing trace
    requestFail(R"({"op":"analyze","trace":""})");
    requestFail(R"({"op":"analyze","trace":17})");
    requestFail(R"({"op":"query","trace":"t.etl"})"); // missing specs
    requestFail(R"({"op":"query","trace":"t.etl","specs":[]})");
    requestFail(R"({"op":"query","trace":"t.etl","specs":["a",3]})");
    requestFail(R"({"op":"bottlenecks","trace":"t.etl","top":-1})");
    requestFail(R"({"op":"bottlenecks","trace":"t.etl","top":2.5})");
    requestFail(R"({"op":"series","trace":"t.etl","kind":"nope"})");
    requestFail(
        R"({"op":"series","trace":"t.etl","window_ns":"wide"})");
    requestFail(R"({"op":"series","trace":"t.etl"})"); // no window
    requestFail(
        R"({"op":"series","trace":"t.etl","window_ns":0})");
}

/** A success envelope around @p doc, as the server renders one. */
std::string
successEnvelope(std::uint64_t id, const std::string &doc,
                const std::vector<trace::Diagnostic> &diagnostics)
{
    std::string envelope;
    beginSuccessEnvelope(envelope, id, diagnostics);
    return envelope + doc + '}';
}

TEST(Protocol, SuccessEnvelopeShape)
{
    std::string env = successEnvelope(7, R"({"x":1})", {});
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson(env, v, error)) << error;
    EXPECT_EQ(v.numberOr("schema", 0), 1.0);
    EXPECT_EQ(v.numberOr("id", 0), 7.0);
    EXPECT_TRUE(v.boolOr("ok", false));
    const JsonValue *diags = v.find("diagnostics");
    ASSERT_TRUE(diags && diags->isArray());
    EXPECT_TRUE(diags->array().empty());
    const JsonValue *result = v.find("result");
    ASSERT_TRUE(result && result->isObject());
    EXPECT_EQ(result->numberOr("x", 0), 1.0);
    // The result member must be last so extraction is a suffix scan.
    EXPECT_EQ(env.find("\"result\""), env.rfind(",\"result\"") + 1);
}

TEST(Protocol, EnvelopeCarriesDiagnostics)
{
    trace::Diagnostic diag;
    diag.severity = trace::Severity::Warning;
    diag.component = "parser";
    diag.detail.reason = "truncated \"payload\"";
    std::string env = successEnvelope(1, "{}", {diag});
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson(env, v, error)) << error;
    const JsonValue *diags = v.find("diagnostics");
    ASSERT_TRUE(diags && diags->isArray());
    ASSERT_EQ(diags->array().size(), 1u);
    EXPECT_EQ(diags->array()[0].stringOr("severity", ""), "warning");
    EXPECT_EQ(diags->array()[0].stringOr("component", ""), "parser");
    EXPECT_NE(diags->array()[0]
                  .stringOr("message", "")
                  .find("truncated \"payload\""),
              std::string::npos);
}

TEST(Protocol, ErrorEnvelopeShape)
{
    std::string env = errorEnvelope(9, "trace", "no such file");
    JsonValue v;
    std::string error;
    ASSERT_TRUE(parseJson(env, v, error)) << error;
    EXPECT_EQ(v.numberOr("id", 0), 9.0);
    EXPECT_FALSE(v.boolOr("ok", true));
    const JsonValue *err = v.find("error");
    ASSERT_TRUE(err && err->isObject());
    EXPECT_EQ(err->stringOr("kind", ""), "trace");
    EXPECT_EQ(err->stringOr("message", ""), "no such file");
    EXPECT_EQ(v.find("result"), nullptr);
}

TEST(Protocol, ExtractResultIsByteExact)
{
    // Doc with every delicate construct: nested braces, escaped
    // quotes, and the literal text "result": inside a string value.
    std::string doc =
        R"({"a":{"b":[1,2]},"s":"fake \"result\": {\"x\":1}","n":-0.5})";
    std::string env = successEnvelope(3, doc, {});
    std::string extracted;
    ASSERT_TRUE(extractResult(env, extracted));
    EXPECT_EQ(extracted, doc);
}

TEST(Protocol, ExtractResultSurvivesDecoyInDiagnostics)
{
    trace::Diagnostic diag;
    diag.component = "c";
    diag.detail.reason = R"(spoof "result":{"evil":true})";
    std::string doc = R"({"real":1})";
    std::string env = successEnvelope(0, doc, {diag});
    std::string extracted;
    ASSERT_TRUE(extractResult(env, extracted));
    EXPECT_EQ(extracted, doc);
}

TEST(Protocol, ExtractResultRejectsErrorAndGarbage)
{
    std::string extracted;
    EXPECT_FALSE(
        extractResult(errorEnvelope(1, "parse", "bad"), extracted));
    EXPECT_FALSE(extractResult("not an envelope", extracted));
    EXPECT_FALSE(extractResult("", extracted));
}

TEST(Protocol, OpNamesRoundTrip)
{
    EXPECT_STREQ(requestOpName(RequestOp::Ping), "ping");
    EXPECT_STREQ(requestOpName(RequestOp::Analyze), "analyze");
    EXPECT_STREQ(requestOpName(RequestOp::Frames), "frames");
}

} // namespace

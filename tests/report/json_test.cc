/**
 * @file
 * Tests for the JSON writer and result serialization.
 */

#include <gtest/gtest.h>

#include <cfloat>
#include <charconv>
#include <cmath>
#include <cstdint>
#include <cstdio>
#include <limits>
#include <sstream>
#include <string>
#include <string_view>
#include <thread>
#include <vector>

#include "report/json.hh"
#include "sim/types.hh"

namespace {

using namespace deskpar;
using namespace deskpar::report;

TEST(Json, EscapesControlAndQuoteCharacters)
{
    EXPECT_EQ(JsonWriter::escape("plain"), "plain");
    EXPECT_EQ(JsonWriter::escape("a\"b"), "a\\\"b");
    EXPECT_EQ(JsonWriter::escape("a\\b"), "a\\\\b");
    EXPECT_EQ(JsonWriter::escape("a\nb\tc"), "a\\nb\\tc");
    EXPECT_EQ(JsonWriter::escape(std::string("\x01", 1)),
              "\\u0001");
}

TEST(Json, ObjectWithFields)
{
    std::ostringstream out;
    JsonWriter json(out);
    json.beginObject()
        .field("name", std::string("x"))
        .field("value", 1.5)
        .field("count", std::uint64_t(3))
        .field("flag", true)
        .endObject();
    EXPECT_EQ(out.str(),
              "{\"name\":\"x\",\"value\":1.5,\"count\":3,"
              "\"flag\":true}");
}

TEST(Json, NestedArrays)
{
    std::ostringstream out;
    JsonWriter json(out);
    json.beginObject();
    json.beginArray("xs").value(1.0).value(2.0).endArray();
    json.field("y", std::uint64_t(7));
    json.endObject();
    EXPECT_EQ(out.str(), "{\"xs\":[1,2],\"y\":7}");
}

TEST(Json, NonFiniteBecomesNull)
{
    std::ostringstream out;
    JsonWriter json(out);
    json.beginArray()
        .value(std::numeric_limits<double>::infinity())
        .value(std::nan(""))
        .endArray();
    EXPECT_EQ(out.str(), "[null,null]");
}

TEST(Json, AppMetricsSerialization)
{
    analysis::AppMetrics metrics;
    metrics.concurrency.numCpus = 4;
    metrics.concurrency.c = {0.5, 0.25, 0.25, 0.0, 0.0};
    metrics.gpu.aggregateRatio = 0.5;
    metrics.gpu.busyRatio = 0.5;
    metrics.frames.frames = 10;
    metrics.frames.avgFps = 30.0;

    std::ostringstream out;
    writeJson(out, metrics);
    std::string text = out.str();
    EXPECT_NE(text.find("\"tlp\":1.5"), std::string::npos);
    EXPECT_NE(text.find("\"gpu_util_percent\":50"),
              std::string::npos);
    EXPECT_NE(text.find("\"c\":[0.5,0.25,0.25,0,0]"),
              std::string::npos);
    EXPECT_NE(text.find("\"frames\":10"), std::string::npos);
    EXPECT_EQ(text.back(), '\n');
}

TEST(Json, AggregateSerialization)
{
    analysis::IterationAggregate agg;
    agg.app = "My \"App\"";
    analysis::AppMetrics m;
    m.concurrency.numCpus = 2;
    m.concurrency.c = {0.5, 0.5, 0.0};
    agg.add(m);

    std::ostringstream out;
    writeJson(out, agg);
    std::string text = out.str();
    EXPECT_NE(text.find("\"app\":\"My \\\"App\\\"\""),
              std::string::npos);
    EXPECT_NE(text.find("\"iterations\":1"), std::string::npos);
    EXPECT_NE(text.find("\"tlp_mean\":1"), std::string::npos);
}

/** printf's rendering of @p v under @p format, in the C locale. */
template <typename T>
std::string
printfText(const char *format, int precision, T v)
{
    char buf[512];
    std::snprintf(buf, sizeof buf, format, precision, v);
    return buf;
}

/** One value through a fresh writer, top-level. */
template <typename Write>
std::string
rendered(Write write)
{
    std::ostringstream out;
    JsonWriter json(out);
    write(json);
    return out.str();
}

/**
 * The writer renders numbers with std::to_chars; the standard defines
 * that as printf in the C locale, and the documents' bytes depend on
 * it. Check it value by value against snprintf on the edge cases and
 * a spread of ordinary values.
 */
TEST(Json, NumbersMatchPrintfByteForByte)
{
    std::vector<double> values = {
        0.0,
        -0.0,
        std::numeric_limits<double>::denorm_min(),
        -std::numeric_limits<double>::denorm_min(),
        DBL_MIN,
        DBL_MAX,
        -DBL_MAX,
        1e-7,
        9007199254740991.0, // 2^53 - 1
        9007199254740992.0, // 2^53
        9007199254740993.0, // 2^53 + 1 (rounds to 2^53)
        -9007199254740991.0,
        0.5,
        1.0 / 3.0,
        2.0 / 3.0,
        123456789.123456789,
        -1.5e-300,
        999999.5,
        0.0005,
        0.00049999999999999,
        1e15,
        1e16,
        1e17,
    };
    for (int k = -50; k <= 50; ++k)
        values.push_back(0.1 * k);
    // A deterministic spread over magnitudes: xorshift mantissas
    // scaled by powers of ten from 1e-12 to 1e12.
    std::uint64_t state = 88172645463325252ull;
    for (int i = 0; i < 2000; ++i) {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        double mantissa =
            static_cast<double>(state >> 11) / 9007199254740992.0;
        values.push_back((i % 2 ? -1 : 1) * mantissa *
                         std::pow(10.0, i % 25 - 12));
    }

    for (double v : values) {
        for (int digits : {6, 9, 17})
            EXPECT_EQ(rendered([&](JsonWriter &j) { j.value(v, digits); }),
                      printfText("%.*g", digits, v))
                << std::hexfloat << v << " at " << digits;
        EXPECT_EQ(rendered([&](JsonWriter &j) { j.value(v); }),
                  printfText("%.*g", 6, v))
            << std::hexfloat << v;
        EXPECT_EQ(rendered([&](JsonWriter &j) { j.valueFixed(v, 3); }),
                  printfText("%.*f", 3, v))
            << std::hexfloat << v;
    }

    for (std::uint64_t v :
         {std::uint64_t{0}, std::uint64_t{1}, std::uint64_t{9},
          std::uint64_t{10}, std::uint64_t{4294967296},
          std::uint64_t{9007199254740993},
          std::numeric_limits<std::uint64_t>::max()})
        EXPECT_EQ(rendered([&](JsonWriter &j) { j.value(v); }),
                  printfText("%.*llu", 1,
                             static_cast<unsigned long long>(v)));
}

/**
 * valueSeconds(t) against "%.9g" of toSeconds(t), the text every
 * document timestamp had before the writer rendered it from the
 * integer. The oracle is snprintf, or, for the exhaustive bucket-edge
 * sweep, std::to_chars at precision 9 on the same double: the
 * standard defines it as that printf, and NumbersMatchPrintfByteForByte
 * checks it. Mismatches are counted; the first few are reported.
 */
class SecondsOracle
{
  public:
    void
    check(sim::SimTime t, bool viaPrintf = true)
    {
        text_.clear();
        json_.valueSeconds(t);
        char want[64];
        std::size_t n = 0;
        if (viaPrintf)
            n = static_cast<std::size_t>(std::snprintf(
                want, sizeof want, "%.9g", sim::toSeconds(t)));
        else
            n = static_cast<std::size_t>(
                std::to_chars(want, want + sizeof want,
                              sim::toSeconds(t),
                              std::chars_format::general, 9)
                    .ptr -
                want);
        ++checked_;
        if (text_ != std::string_view(want, n) && ++failures_ <= 10)
            ADD_FAILURE() << t << " ns: got " << text_ << ", want "
                          << std::string_view(want, n);
    }

    std::uint64_t checked() const { return checked_; }

  private:
    std::string text_;
    JsonWriter json_{text_};
    std::uint64_t checked_ = 0;
    std::uint64_t failures_ = 0;
};

constexpr sim::SimTime kSecond = 1'000'000'000;

/**
 * Every bucket edge of the 7 ms, 100 ms, 250 ms and 1 s widths up to
 * 10^6 s (1.6e8 times; every 61st also through snprintf), split over
 * four threads.
 */
TEST(Json, SecondsMatchPrintfOnEveryBucketEdge)
{
    const sim::SimTime widths[] = {7 * kSecond / 1000, kSecond / 10,
                                   kSecond / 4, kSecond};
    constexpr sim::SimTime kEnd = 1'000'000 * kSecond;
    constexpr unsigned kThreads = 4;
    std::vector<std::uint64_t> checked(kThreads, 0);
    std::vector<std::thread> threads;
    for (unsigned part = 0; part < kThreads; ++part) {
        threads.emplace_back([&, part] {
            SecondsOracle oracle;
            for (sim::SimTime width : widths) {
                const sim::SimTime edges = kEnd / width + 1;
                for (sim::SimTime k = edges * part / kThreads;
                     k < edges * (part + 1) / kThreads; ++k)
                    oracle.check(k * width, k % 61 == 0);
            }
            checked[part] = oracle.checked();
        });
    }
    for (std::thread &thread : threads)
        thread.join();
    std::uint64_t total = 0;
    for (std::uint64_t n : checked)
        total += n;
    EXPECT_EQ(total, 142'857'143u + 10'000'001u + 4'000'001u +
                         1'000'001u);
}

TEST(Json, SecondsMatchPrintfByteForByte)
{
    SecondsOracle oracle;

    // Below 1e-4 s, where %g may take an exponent, and across it.
    for (sim::SimTime t = 0; t <= 300'000; ++t)
        oracle.check(t);

    // Exact ties at the 10th significant digit (the double decides),
    // the times one ns either side, and the round-up carries.
    std::uint64_t state = 0x2545F4914F6CDD1Dull;
    auto next = [&state] {
        state ^= state << 13;
        state ^= state >> 7;
        state ^= state << 17;
        return state;
    };
    for (sim::SimTime unit = 10; unit <= 10'000'000; unit *= 10) {
        for (int i = 0; i < 5'000; ++i) {
            sim::SimTime q = 100'000'000 + next() % 900'000'000;
            if (i == 0)
                q = 999'999'999;
            sim::SimTime tie = q * unit + unit / 2;
            for (sim::SimTime t : {tie - 1, tie, tie + 1, q * unit,
                                   (q + 1) * unit - 1})
                oracle.check(t);
        }
    }

    // Bucket edges that do not start at 0: a random start plus k
    // widths, as a trace whose window opens late renders them.
    for (int i = 0; i < 200'000; ++i) {
        sim::SimTime start = next() % (1'000'000 * kSecond);
        oracle.check(start + (next() % 4096) * 7'000'000);
    }

    // At and past 2^50 ns, up to the largest time.
    constexpr sim::SimTime k2p50 = sim::SimTime{1} << 50;
    for (sim::SimTime t = k2p50 - 5000; t <= k2p50 + 5000; ++t)
        oracle.check(t);
    oracle.check(std::numeric_limits<sim::SimTime>::max());

    // Random times on a log scale over the whole range.
    for (int i = 0; i < 1'000'000; ++i)
        oracle.check(next() >> (next() % 64));

    EXPECT_GT(oracle.checked(), 1'500'000u);
}

/**
 * Row k's t1 is row k+1's t0: the writer keeps the last text, and a
 * repeat, or a new time after it, renders as if rendered alone.
 */
TEST(Json, SecondsReuseTheLastEdgeText)
{
    std::string text;
    JsonWriter json(text);
    json.beginArray()
        .valueSeconds(250'000'000)
        .valueSeconds(250'000'000)
        .valueSeconds(500'000'000)
        .valueSeconds(12)
        .valueSeconds(12)
        .valueSeconds(0)
        .endArray();
    EXPECT_EQ(text, "[0.25,0.25,0.5,1.2e-08,1.2e-08,0]");
}

TEST(Json, NonFiniteRendersAsNullInEveryNumberForm)
{
    for (double v : {std::numeric_limits<double>::infinity(),
                     -std::numeric_limits<double>::infinity(),
                     std::numeric_limits<double>::quiet_NaN()}) {
        EXPECT_EQ(rendered([&](JsonWriter &j) { j.value(v); }), "null");
        EXPECT_EQ(rendered([&](JsonWriter &j) { j.value(v, 17); }),
                  "null");
        EXPECT_EQ(rendered([&](JsonWriter &j) { j.valueFixed(v, 3); }),
                  "null");
    }
}

/** Text streamed after the outermost end lands after the document. */
TEST(Json, TextAfterOutermostEndFollowsTheDocument)
{
    std::ostringstream out;
    {
        JsonWriter json(out);
        json.beginObject().field("a", std::uint64_t(1));
        json.beginArray("b").value(true).endArray();
        json.endObject();
        out << '\n';
        json.beginArray().value(std::string("x")).endArray();
        out << "tail";
    }
    EXPECT_EQ(out.str(), "{\"a\":1,\"b\":[true]}\n[\"x\"]tail");

    analysis::AppMetrics metrics;
    metrics.concurrency.c = {1.0};
    std::ostringstream doc;
    writeJson(doc, metrics);
    EXPECT_EQ(doc.str().find('\n'), doc.str().size() - 1);
    EXPECT_EQ(doc.str()[doc.str().size() - 2], '}');
}

/** A writer destroyed with containers still open flushes its text. */
TEST(Json, DestroyedWithOpenContainersStillFlushes)
{
    std::ostringstream out;
    {
        JsonWriter json(out);
        json.beginObject().field("k", std::string("v"));
        json.beginArray("xs").value(1.5);
        EXPECT_EQ(out.str(), "");
    }
    EXPECT_EQ(out.str(), "{\"k\":\"v\",\"xs\":[1.5");
}

/** Keys and strings escape in place, control bytes as u00XX escapes. */
TEST(Json, KeysAndStringsEscapeInPlace)
{
    std::string raw = std::string("q\"b\\n\nr\rt\t") +
                      std::string("\x00\x1f\x7f", 3);
    std::string expected = JsonWriter::escape(raw);
    EXPECT_EQ(expected,
              "q\\\"b\\\\n\\nr\\rt\\t\\u0000\\u001f\x7f");
    EXPECT_EQ(rendered([&](JsonWriter &j) {
                  j.beginObject().field(raw, raw).endObject();
              }),
              "{\"" + expected + "\":\"" + expected + "\"}");
}

} // namespace

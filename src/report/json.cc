#include "report/json.hh"

#include <algorithm>
#include <array>
#include <charconv>
#include <cmath>
#include <ostream>
#include <system_error>

#include "sim/logging.hh"
#include "obs/obs.hh"

namespace deskpar::report {

namespace {

/** Append @p s to @p out, escaped per RFC 8259. */
void
appendEscaped(std::string &out, std::string_view s)
{
    static constexpr char kHex[] = "0123456789abcdef";
    for (char c : s) {
        switch (c) {
          case '"':
            out += "\\\"";
            break;
          case '\\':
            out += "\\\\";
            break;
          case '\n':
            out += "\\n";
            break;
          case '\r':
            out += "\\r";
            break;
          case '\t':
            out += "\\t";
            break;
          default:
            if (static_cast<unsigned char>(c) < 0x20) {
                const auto u = static_cast<unsigned char>(c);
                const char code[] = {'\\', 'u', '0', '0',
                                     kHex[u >> 4], kHex[u & 0xf]};
                out.append(code, sizeof code);
            } else {
                out += c;
            }
        }
    }
}

/**
 * Append std::to_chars(v, format, precision): printf's "%.*g" or
 * "%.*f" text. A 64-byte stack buffer holds the %g text of every
 * precision up to 50 and the %.3f text of every |v| below 1e58;
 * longer text retries in a buffer sized for DBL_MAX's 309 integer
 * digits plus the precision.
 */
void
appendDouble(std::string &out, double v, std::chars_format format,
             int precision)
{
    char buf[64];
    std::to_chars_result r =
        std::to_chars(buf, buf + sizeof buf, v, format, precision);
    if (r.ec == std::errc()) {
        out.append(buf, r.ptr);
        return;
    }
    std::string big(
        330 + static_cast<std::size_t>(std::max(precision, 0)), '\0');
    r = std::to_chars(big.data(), big.data() + big.size(), v, format,
                      precision);
    out.append(big.data(), r.ptr);
}

/** kPow10[i] = 10^i, up to 10^16 (past 2^50 ns). */
constexpr auto kPow10 = [] {
    std::array<std::uint64_t, 17> pow10{};
    pow10[0] = 1;
    for (std::size_t i = 1; i < pow10.size(); ++i)
        pow10[i] = pow10[i - 1] * 10;
    return pow10;
}();

/**
 * Write "%.9g" of sim::toSeconds(@p t) to @p buf (24 bytes) and
 * return its length.
 *
 * From 1e-4 s (below it %g may take an exponent) up to 2^50 ns, the
 * text follows from the integer: round t to 9 significant digits,
 * place the decimal point 9 digits from the ns end, and drop
 * trailing zeros as %g does. toSeconds(t) = t * 1e-9 is within
 * 2^-52 relative of t/10^9, which below 2^50 ns is under 0.25 ns,
 * while a discarded remainder that is not an exact half is at least
 * 1 ns from the rounding boundary: the double rounds the same way.
 * Exact ties, and every time outside that range, go to to_chars on
 * the double itself. No such time is large enough for an exponent.
 */
std::size_t
formatSeconds(char *buf, sim::SimTime t)
{
    constexpr sim::SimTime kMin = 100000;
    constexpr sim::SimTime kMax = sim::SimTime{1} << 50;
    auto viaDouble = [&] {
        return static_cast<std::size_t>(
            std::to_chars(buf, buf + 24, sim::toSeconds(t),
                          std::chars_format::general, 9)
                .ptr -
            buf);
    };
    if (t < kMin || t >= kMax)
        return viaDouble();

    // q: t's 9 leading digits (rounded), worth q * 10^(m-9) s.
    unsigned digits = 6;
    while (t >= kPow10[digits])
        ++digits;
    std::uint64_t q = t;
    unsigned m = 0;
    unsigned nd = digits;
    if (digits > 9) {
        m = digits - 9;
        nd = 9;
        const std::uint64_t unit = kPow10[m];
        const std::uint64_t rem = t % unit;
        q = t / unit;
        if (rem == unit / 2)
            return viaDouble();
        if (rem > unit / 2 && ++q == kPow10[9]) {
            q = kPow10[8];
            ++m;
        }
    }
    char d[9];
    for (unsigned i = nd; i-- > 0; q /= 10)
        d[i] = static_cast<char>('0' + q % 10);
    unsigned last = nd - 1; // the last nonzero digit (q > 0)
    while (d[last] == '0')
        --last;

    // Integer-part digits: nd + m - 9, at most 7 below 2^50 ns.
    const int intDigits = static_cast<int>(nd + m) - 9;
    char *p = buf;
    if (intDigits <= 0) {
        *p++ = '0';
        *p++ = '.';
        for (int i = intDigits; i < 0; ++i)
            *p++ = '0';
        p = std::copy(d, d + last + 1, p);
    } else {
        const auto e = static_cast<unsigned>(intDigits);
        p = std::copy(d, d + e, p);
        if (last >= e) {
            *p++ = '.';
            p = std::copy(d + e, d + last + 1, p);
        }
    }
    return static_cast<std::size_t>(p - buf);
}

} // namespace

JsonWriter::~JsonWriter()
{
    if (!out_ || buf_.empty())
        return;
    try {
        out_->write(buf_.data(),
                    static_cast<std::streamsize>(buf_.size()));
    } catch (...) {
        // A stream that throws on failure set its error state first;
        // that state is the caller's record of the lost text.
    }
}

std::string
JsonWriter::escape(std::string_view s)
{
    std::string out;
    out.reserve(s.size());
    appendEscaped(out, s);
    return out;
}

void
JsonWriter::separator()
{
    if (!hasElement_.empty()) {
        if (hasElement_.back() == '1')
            buf_ += ',';
        else
            hasElement_.back() = '1';
    }
}

void
JsonWriter::flushIfClosed()
{
    if (out_ && hasElement_.empty()) {
        out_->write(buf_.data(),
                    static_cast<std::streamsize>(buf_.size()));
        buf_.clear();
    }
}

JsonWriter &
JsonWriter::beginObject()
{
    separator();
    buf_ += '{';
    hasElement_.push_back('0');
    return *this;
}

JsonWriter &
JsonWriter::endObject()
{
    if (hasElement_.empty())
        panic("JsonWriter::endObject: nothing open");
    hasElement_.pop_back();
    buf_ += '}';
    flushIfClosed();
    return *this;
}

JsonWriter &
JsonWriter::beginArray(std::string_view name)
{
    if (!name.empty())
        key(name);
    // Mark the array itself as the parent level's element (after a
    // key the flag is '0' so this adds no comma).
    separator();
    buf_ += '[';
    hasElement_.push_back('0');
    return *this;
}

JsonWriter &
JsonWriter::endArray()
{
    if (hasElement_.empty())
        panic("JsonWriter::endArray: nothing open");
    hasElement_.pop_back();
    buf_ += ']';
    flushIfClosed();
    return *this;
}

JsonWriter &
JsonWriter::key(std::string_view name)
{
    separator();
    buf_ += '"';
    appendEscaped(buf_, name);
    buf_ += "\":";
    // The upcoming value must not emit another separator.
    if (!hasElement_.empty())
        hasElement_.back() = '0';
    return *this;
}

JsonWriter &
JsonWriter::value(std::string_view v)
{
    separator();
    buf_ += '"';
    appendEscaped(buf_, v);
    buf_ += '"';
    flushIfClosed();
    return *this;
}

JsonWriter &
JsonWriter::value(double v)
{
    return value(v, 6);
}

JsonWriter &
JsonWriter::value(double v, int digits)
{
    separator();
    if (std::isfinite(v))
        appendDouble(buf_, v, std::chars_format::general, digits);
    else
        buf_ += "null";
    flushIfClosed();
    return *this;
}

JsonWriter &
JsonWriter::valueFixed(double v, int decimals)
{
    separator();
    if (std::isfinite(v))
        appendDouble(buf_, v, std::chars_format::fixed, decimals);
    else
        buf_ += "null";
    flushIfClosed();
    return *this;
}

JsonWriter &
JsonWriter::value(std::uint64_t v)
{
    separator();
    char text[20];
    buf_.append(text, std::to_chars(text, text + sizeof text, v).ptr);
    flushIfClosed();
    return *this;
}

JsonWriter &
JsonWriter::value(bool v)
{
    separator();
    buf_ += v ? "true" : "false";
    flushIfClosed();
    return *this;
}

JsonWriter &
JsonWriter::valueSeconds(sim::SimTime t)
{
    separator();
    if (secondsLen_ == 0 || t != secondsTime_) {
        secondsLen_ = formatSeconds(secondsText_, t);
        secondsTime_ = t;
    }
    buf_.append(secondsText_, secondsLen_);
    flushIfClosed();
    return *this;
}

void
writeJson(std::ostream &out, const analysis::AppMetrics &metrics)
{
    obs::Span span("report.json", obs::SpanKind::Report);
    JsonWriter json(out);
    json.beginObject()
        .field("tlp", metrics.tlp())
        .field("gpu_util_percent", metrics.gpuUtilPercent())
        .field("gpu_aggregate_ratio", metrics.gpu.aggregateRatio)
        .field("gpu_busy_ratio", metrics.gpu.busyRatio)
        .field("gpu_overlapped", metrics.gpu.overlapped)
        .field("idle_fraction", metrics.concurrency.idleFraction())
        .field("max_concurrency",
               std::uint64_t(metrics.concurrency.maxConcurrency()))
        .field("avg_fps", metrics.frames.avgFps)
        .field("frames", std::uint64_t(metrics.frames.frames));
    json.beginArray("c");
    for (double c : metrics.concurrency.c)
        json.value(c);
    json.endArray();
    json.endObject();
    out << '\n';
}

void
writeJson(std::ostream &out,
          const analysis::IterationAggregate &aggregate)
{
    obs::Span span("report.json", obs::SpanKind::Report);
    JsonWriter json(out);
    json.beginObject()
        .field("app", aggregate.app)
        .field("iterations", std::uint64_t(aggregate.tlp.count()))
        .field("tlp_mean", aggregate.tlp.mean())
        .field("tlp_stddev", aggregate.tlp.stddev())
        .field("gpu_util_mean", aggregate.gpuUtil.mean())
        .field("gpu_util_stddev", aggregate.gpuUtil.stddev())
        .field("max_concurrency_mean",
               aggregate.maxConcurrency.mean())
        .field("gpu_overlapped", aggregate.gpuOverlapped);
    json.beginArray("mean_c");
    for (double c : aggregate.meanC)
        json.value(c);
    json.endArray();
    json.endObject();
    out << '\n';
}

} // namespace deskpar::report

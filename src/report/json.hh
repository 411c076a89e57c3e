/**
 * @file
 * JSON result export: machine-readable output of the analysis
 * results for downstream tooling (plotting, CI regression checks).
 * Includes a minimal escape-correct writer — no external JSON
 * dependency.
 */

#ifndef DESKPAR_REPORT_JSON_HH
#define DESKPAR_REPORT_JSON_HH

#include <cstdint>
#include <iosfwd>
#include <string>
#include <string_view>

#include "analysis/analyzer.hh"
#include "sim/types.hh"

namespace deskpar::report {

/**
 * Minimal streaming JSON writer. Call the begin/end pairs in
 * document order; keys and values are escaped.
 *
 * On a stream, the text is built in one string and written when the
 * outermost container closes (or a top-level scalar is written), and
 * by the destructor if a container is still open. Anything the caller
 * streams after the outermost end therefore lands after the document.
 * On a string, the text is appended to it directly.
 *
 * Numbers render through std::to_chars, which the standard defines as
 * printf in the C locale: value(double, p) is byte-identical to
 * "%.*g", valueFixed to "%.*f", and value(uint64_t) to "%llu".
 */
class JsonWriter
{
  public:
    explicit JsonWriter(std::ostream &out)
        : out_(&out), buf_(own_)
    {}
    /** Append the document to @p out, with no copy. */
    explicit JsonWriter(std::string &out)
        : buf_(out)
    {}
    ~JsonWriter();

    JsonWriter(const JsonWriter &) = delete;
    JsonWriter &operator=(const JsonWriter &) = delete;

    JsonWriter &beginObject();
    JsonWriter &endObject();
    JsonWriter &beginArray(std::string_view key = {});
    JsonWriter &endArray();

    JsonWriter &key(std::string_view name);
    JsonWriter &value(std::string_view v);
    JsonWriter &value(double v);
    /**
     * Double with an explicit %g significant-digit count: the
     * unified result documents emit query values at full round-trip
     * precision (17) and timestamps at 9, matching what the CLI
     * always printed.
     */
    JsonWriter &value(double v, int digits);
    /**
     * Double with a fixed decimal count (%.*f) — the bottleneck
     * documents render milliseconds and ratios at 3 decimals.
     */
    JsonWriter &valueFixed(double v, int decimals);
    JsonWriter &value(std::uint64_t v);
    JsonWriter &value(bool v);
    /**
     * Time @p t as seconds: exactly value(sim::toSeconds(t), 9), the
     * %.9g timestamps of the result documents. The digits come from
     * the integer nanoseconds; the double decides only where it can
     * differ from them (see formatSeconds in json.cc). The last time
     * rendered is kept, so a bucket edge shared by two rows (row k's
     * t1 is row k+1's t0) is formatted once.
     */
    JsonWriter &valueSeconds(sim::SimTime t);

    /** key + value in one call. */
    template <typename T>
    JsonWriter &
    field(std::string_view name, const T &v)
    {
        key(name);
        return value(v);
    }

    /** Escape @p s per RFC 8259 (quotes not included). */
    static std::string escape(std::string_view s);

  private:
    void separator();
    /** Write the buffered text once no container is open. */
    void flushIfClosed();

    /** The stream written to; null when rendering into a string. */
    std::ostream *out_ = nullptr;
    /** A stream writer's text not yet written to out_. */
    std::string own_;
    /** The text being rendered: own_, or the caller's string. */
    std::string &buf_;
    /** Whether the current nesting level already has an element. */
    std::string hasElement_; // stack of 0/1 flags
    /** valueSeconds' last time and its text (%.9g is <= 14 chars). */
    sim::SimTime secondsTime_ = 0;
    char secondsText_[24] = {};
    std::size_t secondsLen_ = 0;
};

/** Serialize one trace's application metrics. */
void writeJson(std::ostream &out,
               const analysis::AppMetrics &metrics);

/** Serialize a multi-iteration aggregate (the Table II row). */
void writeJson(std::ostream &out,
               const analysis::IterationAggregate &aggregate);

} // namespace deskpar::report

#endif // DESKPAR_REPORT_JSON_HH

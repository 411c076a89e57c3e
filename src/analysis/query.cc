#include "analysis/query.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <utility>

#include "sim/logging.hh"

namespace deskpar::analysis {

using sim::SimDuration;
using sim::SimTime;
using trace::Pid;
using trace::Tid;

const char *
queryMetricName(QueryMetric metric)
{
    switch (metric) {
      case QueryMetric::Tlp:
        return "tlp";
      case QueryMetric::BusyFraction:
        return "busy";
      case QueryMetric::GpuOccupancy:
        return "gpu";
      case QueryMetric::ContextSwitchRate:
        return "csrate";
      case QueryMetric::DurationHistogram:
        return "dhist";
      case QueryMetric::WaitFraction:
        return "waitfrac";
      case QueryMetric::ReadyLatency:
        return "readylat";
      case QueryMetric::TopBlocked:
        return "topblocked";
    }
    return "?";
}

const char *
queryGroupByName(QueryGroupBy groupBy)
{
    switch (groupBy) {
      case QueryGroupBy::None:
        return "none";
      case QueryGroupBy::Process:
        return "process";
      case QueryGroupBy::Thread:
        return "thread";
      case QueryGroupBy::Phase:
        return "phase";
      case QueryGroupBy::GpuEngine:
        return "engine";
      case QueryGroupBy::TimeBucket:
        return "bucket";
    }
    return "?";
}

namespace {

/** Display key of one pid: its recorded name, or "pid<N>". */
std::string
processKey(const trace::TraceBundle &bundle, Pid pid)
{
    auto it = bundle.processNames.find(pid);
    if (it != bundle.processNames.end() && !it->second.empty())
        return it->second;
    return "pid" + std::to_string(pid);
}

/**
 * Exact decimal-seconds image of an integer nanosecond count
 * ("1.25", "0.000000128"). The old %g formatter rounded to six
 * significant digits, so sub-millisecond bucket widths and offsets
 * did not survive a print/parse round trip.
 */
std::string
formatDecimalSeconds(SimTime t)
{
    std::string s = std::to_string(t / 1000000000ull);
    std::uint64_t frac = t % 1000000000ull;
    if (frac != 0) {
        char buf[16];
        std::snprintf(buf, sizeof buf, "%09llu",
                      static_cast<unsigned long long>(frac));
        std::string digits = buf;
        while (digits.back() == '0')
            digits.pop_back();
        s += '.';
        s += digits;
    }
    return s;
}

/**
 * Exact decimal -> integer nanoseconds: digits[.digits] at @p scale
 * nanoseconds per unit. Returns false on any non-digit character,
 * precision finer than one nanosecond, or overflow — the caller
 * falls back to the strtod path for scientific notation.
 */
bool
decimalToNs(const std::string &text, std::uint64_t scale,
            std::uint64_t &out)
{
    constexpr std::uint64_t kMax = ~std::uint64_t{0};
    std::size_t i = 0;
    bool any = false;
    std::uint64_t whole = 0;
    for (; i < text.size() && text[i] >= '0' && text[i] <= '9'; ++i) {
        auto d = static_cast<std::uint64_t>(text[i] - '0');
        if (whole > (kMax - d) / 10)
            return false;
        whole = whole * 10 + d;
        any = true;
    }
    std::uint64_t frac = 0;
    if (i < text.size() && text[i] == '.') {
        ++i;
        std::uint64_t unit = scale;
        for (; i < text.size() && text[i] >= '0' && text[i] <= '9';
             ++i) {
            auto d = static_cast<std::uint64_t>(text[i] - '0');
            unit /= 10;
            if (d != 0 && unit == 0)
                return false;
            frac += d * unit;
            any = true;
        }
    }
    if (!any || i != text.size())
        return false;
    if (whole > (kMax - frac) / scale)
        return false;
    out = whole * scale + frac;
    return true;
}

} // namespace

Query
parseQuerySpec(const std::string &spec)
{
    auto bad = [&spec](const std::string &why) {
        deskpar::fatal("query spec '" + spec + "': " + why);
    };

    std::vector<std::string> tokens;
    for (std::size_t pos = 0; pos <= spec.size();) {
        std::size_t slash = spec.find('/', pos);
        if (slash == std::string::npos)
            slash = spec.size();
        tokens.push_back(spec.substr(pos, slash - pos));
        pos = slash + 1;
    }
    if (tokens.empty() || tokens[0].empty())
        bad("missing metric (tlp|busy|gpu|csrate|dhist|waitfrac|"
            "readylat|topblocked)");

    Query query;
    const std::string &metric = tokens[0];
    if (metric == "tlp") {
        query.metric = QueryMetric::Tlp;
    } else if (metric == "busy") {
        query.metric = QueryMetric::BusyFraction;
    } else if (metric == "gpu") {
        query.metric = QueryMetric::GpuOccupancy;
    } else if (metric == "csrate") {
        query.metric = QueryMetric::ContextSwitchRate;
    } else if (metric == "dhist") {
        query.metric = QueryMetric::DurationHistogram;
    } else if (metric == "waitfrac") {
        query.metric = QueryMetric::WaitFraction;
    } else if (metric == "readylat") {
        query.metric = QueryMetric::ReadyLatency;
    } else if (metric == "topblocked") {
        query.metric = QueryMetric::TopBlocked;
    } else {
        bad("unknown metric '" + metric + "'");
    }

    auto parseNumber = [&bad](const std::string &text,
                              const char *what, const char **rest) {
        const char *begin = text.c_str();
        char *end = nullptr;
        double v = std::strtod(begin, &end);
        if (end == begin || v < 0.0)
            bad(std::string("bad ") + what + " '" + text + "'");
        if (rest)
            *rest = end;
        else if (*end != '\0')
            bad(std::string("bad ") + what + " '" + text + "'");
        return v;
    };

    // Strip the ns|us|ms|s suffix; false when none matches (plain
    // "ns" etc. degrades to an empty body, which the parsers reject).
    auto splitUnit = [](const std::string &text, std::string &body,
                        std::uint64_t &scale) {
        auto ends = [&text](const char *suf, std::size_t n) {
            return text.size() > n &&
                   text.compare(text.size() - n, n, suf) == 0;
        };
        if (ends("ns", 2))
            scale = 1;
        else if (ends("us", 2))
            scale = 1000;
        else if (ends("ms", 2))
            scale = 1000000;
        else if (ends("s", 1))
            scale = 1000000000;
        else
            return false;
        body = text.substr(0, text.size() - (scale == 1000000000 ? 1 : 2));
        return true;
    };

    auto parseDuration = [&bad, &parseNumber,
                          &splitUnit](const std::string &text,
                                      const char *what) {
        // Exact integer path first: the decimal strings
        // querySpecString prints must round-trip bit for bit.
        std::string body;
        std::uint64_t scale = 0;
        std::uint64_t ns = 0;
        SimDuration d = 0;
        if (splitUnit(text, body, scale) &&
            decimalToNs(body, scale, ns)) {
            d = ns;
        } else {
            // Fallback for scientific notation ("2.5e-3s"): strtod
            // plus a re-validated suffix, rounded to the nearest
            // nanosecond.
            const char *suffix = nullptr;
            double v = parseNumber(text, what, &suffix);
            double fscale = 0.0;
            std::string suf(suffix);
            if (suf == "ns")
                fscale = 1.0;
            else if (suf == "us")
                fscale = 1e3;
            else if (suf == "ms")
                fscale = 1e6;
            else if (suf == "s")
                fscale = 1e9;
            else
                bad(std::string(what) + " '" + text +
                    "' needs a ns|us|ms|s suffix");
            d = static_cast<SimDuration>(std::llround(v * fscale));
        }
        if (d == 0)
            bad(std::string(what) + " '" + text + "' must be > 0");
        return d;
    };

    // Seconds offsets: exact decimal first, for the same reason.
    auto parseTime = [&parseNumber](const std::string &text,
                                    const char *what) {
        std::uint64_t ns = 0;
        if (decimalToNs(text, 1000000000ull, ns))
            return static_cast<SimTime>(ns);
        return sim::sec(parseNumber(text, what, nullptr));
    };

    for (std::size_t i = 1; i < tokens.size(); ++i) {
        const std::string &tok = tokens[i];
        std::size_t eq = tok.find('=');
        if (eq == std::string::npos || eq == 0)
            bad("expected key=value, got '" + tok + "'");
        std::string key = tok.substr(0, eq);
        std::string value = tok.substr(eq + 1);
        if (key == "app") {
            if (value.empty())
                bad("empty app prefix");
            query.filter.namePrefix = value;
        } else if (key == "pids") {
            for (std::size_t pos = 0; pos <= value.size();) {
                std::size_t comma = value.find(',', pos);
                if (comma == std::string::npos)
                    comma = value.size();
                std::string item = value.substr(pos, comma - pos);
                const char *begin = item.c_str();
                char *end = nullptr;
                unsigned long pid = std::strtoul(begin, &end, 10);
                if (end == begin || *end != '\0')
                    bad("bad pid '" + item + "'");
                query.filter.pids.insert(static_cast<Pid>(pid));
                pos = comma + 1;
            }
            if (query.filter.pids.empty())
                bad("empty pid list");
        } else if (key == "t0") {
            query.filter.t0 = parseTime(value, "t0");
        } else if (key == "t1") {
            query.filter.t1 = parseTime(value, "t1");
        } else if (key == "cpus") {
            detail::CpuMask mask = 0;
            for (std::size_t pos = 0; pos <= value.size();) {
                std::size_t comma = value.find(',', pos);
                if (comma == std::string::npos)
                    comma = value.size();
                std::string item = value.substr(pos, comma - pos);
                const char *begin = item.c_str();
                char *end = nullptr;
                unsigned long lo = std::strtoul(begin, &end, 10);
                unsigned long hi = lo;
                if (end != begin && *end == '-') {
                    const char *hbegin = end + 1;
                    hi = std::strtoul(hbegin, &end, 10);
                    if (end == hbegin)
                        bad("bad cpu range '" + item + "'");
                }
                if (end == begin || *end != '\0' || hi < lo)
                    bad("bad cpu id '" + item + "'");
                if (hi >= 64)
                    bad("cpu ids above 63 are not maskable");
                for (unsigned long cpu = lo; cpu <= hi; ++cpu)
                    mask |= detail::CpuMask{1} << cpu;
                pos = comma + 1;
            }
            if (mask == 0)
                bad("empty cpu list");
            query.filter.cpuMask = mask;
        } else if (key == "by") {
            std::string group = value;
            std::size_t colon = value.find(':');
            if (colon != std::string::npos) {
                group = value.substr(0, colon);
                query.bucket = parseDuration(value.substr(colon + 1),
                                             "bucket width");
            }
            if (group == "process") {
                query.groupBy = QueryGroupBy::Process;
            } else if (group == "thread") {
                query.groupBy = QueryGroupBy::Thread;
            } else if (group == "phase") {
                query.groupBy = QueryGroupBy::Phase;
            } else if (group == "engine") {
                query.groupBy = QueryGroupBy::GpuEngine;
            } else if (group == "bucket") {
                query.groupBy = QueryGroupBy::TimeBucket;
                if (query.bucket == 0)
                    bad("by=bucket needs a width "
                        "(e.g. by=bucket:250ms)");
            } else {
                bad("unknown group-by '" + group + "'");
            }
        } else if (key == "label") {
            query.label = value;
        } else {
            bad("unknown field '" + key + "'");
        }
    }
    return query;
}

std::string
querySpecString(const Query &query)
{
    std::string s = queryMetricName(query.metric);
    if (!query.filter.namePrefix.empty()) {
        s += "/app=" + query.filter.namePrefix;
    } else if (!query.filter.pids.empty()) {
        std::vector<Pid> pids(query.filter.pids.begin(),
                              query.filter.pids.end());
        std::sort(pids.begin(), pids.end());
        s += "/pids=";
        for (std::size_t i = 0; i < pids.size(); ++i) {
            if (i > 0)
                s += ',';
            s += std::to_string(pids[i]);
        }
    }
    if (query.filter.t0 != 0)
        s += "/t0=" + formatDecimalSeconds(query.filter.t0);
    if (query.filter.t1 != 0)
        s += "/t1=" + formatDecimalSeconds(query.filter.t1);
    if (query.filter.cpuMask != detail::kAllCpus) {
        s += "/cpus=";
        bool firstCpu = true;
        for (unsigned cpu = 0; cpu < 64; ++cpu) {
            if (!detail::cpuInMask(query.filter.cpuMask, cpu))
                continue;
            if (!firstCpu)
                s += ',';
            s += std::to_string(cpu);
            firstCpu = false;
        }
    }
    if (query.groupBy != QueryGroupBy::None) {
        s += "/by=";
        s += queryGroupByName(query.groupBy);
        if (query.groupBy == QueryGroupBy::TimeBucket)
            s += ":" + formatDecimalSeconds(query.bucket) + "s";
    }
    return s;
}

Query
tlpQuery(trace::PidSet pids)
{
    Query query;
    query.metric = QueryMetric::Tlp;
    query.filter.pids = std::move(pids);
    return query;
}

Query
tlpSeriesQuery(trace::PidSet pids, SimDuration window)
{
    Query query;
    query.metric = QueryMetric::Tlp;
    query.filter.pids = std::move(pids);
    query.groupBy = QueryGroupBy::TimeBucket;
    query.bucket = window;
    return query;
}

Query
gpuUtilSeriesQuery(trace::PidSet pids, SimDuration window)
{
    Query query;
    query.metric = QueryMetric::GpuOccupancy;
    query.filter.pids = std::move(pids);
    query.groupBy = QueryGroupBy::TimeBucket;
    query.bucket = window;
    return query;
}

namespace detail {

ResolvedFilter
resolveQueryFilter(const trace::TraceBundle &bundle,
                   const QueryFilter &filter)
{
    ResolvedFilter out;
    out.cpuMask = filter.cpuMask;
    out.pids = filter.pids;
    if (out.pids.empty() && !filter.namePrefix.empty()) {
        std::vector<Pid> matched =
            bundle.pidsByPrefix(filter.namePrefix);
        if (matched.empty())
            deskpar::fatal("query: no process name matches prefix '" +
                           filter.namePrefix + "'");
        out.pids.insert(matched.begin(), matched.end());
    }
    out.t0 = filter.t0 != 0 ? filter.t0 : bundle.startTime;
    out.t1 = filter.t1 != 0 ? filter.t1 : bundle.stopTime;
    if (out.t1 <= out.t0)
        throw EmptyWindowError("fatal: query: empty window");
    return out;
}

QueryRows
expandQueryRows(const trace::TraceBundle &bundle, const Query &query)
{
    if (query.groupBy == QueryGroupBy::GpuEngine &&
        query.metric != QueryMetric::GpuOccupancy)
        deskpar::fatal("query: engine group-by requires the gpu "
                       "metric");
    if (query.metric == QueryMetric::GpuOccupancy &&
        query.groupBy == QueryGroupBy::Thread)
        deskpar::fatal("query: gpu metric cannot group by thread "
                       "(packets carry no tid)");
    if (query.groupBy == QueryGroupBy::TimeBucket &&
        query.bucket == 0)
        deskpar::fatal("query: bucket group-by requires a width");

    QueryRows out;
    out.filter = resolveQueryFilter(bundle, query.filter);
    const ResolvedFilter &f = out.filter;
    std::vector<QueryRowSpec> &rows = out.rows;

    auto baseRow = [&f]() {
        QueryRowSpec row;
        row.t0 = f.t0;
        row.t1 = f.t1;
        return row;
    };

    switch (query.groupBy) {
      case QueryGroupBy::None: {
        rows.push_back(baseRow());
        break;
      }
      case QueryGroupBy::Process: {
        std::vector<Pid> pids;
        if (f.pids.empty()) {
            trace::PidSet all = trace::allApplicationPids(bundle);
            pids.assign(all.begin(), all.end());
        } else {
            pids.assign(f.pids.begin(), f.pids.end());
        }
        std::sort(pids.begin(), pids.end());
        for (Pid pid : pids) {
            QueryRowSpec row = baseRow();
            row.key = processKey(bundle, pid);
            row.pidLabel = pid;
            rows.push_back(std::move(row));
        }
        break;
      }
      case QueryGroupBy::Thread: {
        // Distinct switch-in targets, discovery narrowed by the same
        // mask the evaluation will use.
        std::vector<std::pair<Pid, Tid>> threads;
        for (const auto &e : bundle.cswitches) {
            if (!cpuInMask(f.cpuMask, e.cpu))
                continue;
            if (e.newPid == 0 || e.newTid == 0)
                continue;
            if (!f.pids.empty() && f.pids.count(e.newPid) == 0)
                continue;
            threads.emplace_back(e.newPid, e.newTid);
        }
        std::sort(threads.begin(), threads.end());
        threads.erase(std::unique(threads.begin(), threads.end()),
                      threads.end());
        for (const auto &[pid, tid] : threads) {
            QueryRowSpec row = baseRow();
            row.key =
                processKey(bundle, pid) + "/tid" + std::to_string(tid);
            row.pidLabel = pid;
            row.tidLabel = tid;
            rows.push_back(std::move(row));
        }
        break;
      }
      case QueryGroupBy::Phase: {
        // A phase runs from its marker to the next phase marker (the
        // last one to the end of the filter window), intersected with
        // the window; empty intersections vanish.
        std::vector<const trace::MarkerEvent *> phases;
        for (const auto &m : bundle.markers) {
            if (m.label.rfind("phase:", 0) == 0)
                phases.push_back(&m);
        }
        std::stable_sort(phases.begin(), phases.end(),
                         [](const auto *a, const auto *b) {
                             return a->timestamp < b->timestamp;
                         });
        for (std::size_t i = 0; i < phases.size(); ++i) {
            SimTime begin = phases[i]->timestamp;
            SimTime end = i + 1 < phases.size()
                              ? phases[i + 1]->timestamp
                              : f.t1;
            Interval iv = Interval{begin, end}.clampTo(f.t0, f.t1);
            if (iv.empty())
                continue;
            QueryRowSpec row = baseRow();
            row.key = phases[i]->label;
            row.t0 = iv.begin;
            row.t1 = iv.end;
            rows.push_back(std::move(row));
        }
        break;
      }
      case QueryGroupBy::GpuEngine: {
        for (unsigned e = 0; e < trace::kNumGpuEngines; ++e) {
            QueryRowSpec row = baseRow();
            row.key = trace::gpuEngineName(
                static_cast<trace::GpuEngineId>(e));
            row.engine = static_cast<int>(e);
            rows.push_back(std::move(row));
        }
        break;
      }
      case QueryGroupBy::TimeBucket: {
        for (SimTime t = f.t0; t < f.t1; t += query.bucket) {
            SimTime end = std::min(t + query.bucket, f.t1);
            if (end <= t)
                break;
            QueryRowSpec row = baseRow();
            row.t0 = t;
            row.t1 = end;
            rows.push_back(std::move(row));
        }
        break;
      }
    }
    return out;
}

TimelineSpec
rowFilter(QueryGroupBy groupBy, const ResolvedFilter &filter,
          const QueryRowSpec &row)
{
    TimelineSpec spec;
    spec.cpuMask = filter.cpuMask;
    switch (groupBy) {
      case QueryGroupBy::Thread:
        spec.hasTid = true;
        spec.tid = row.tidLabel;
        [[fallthrough]];
      case QueryGroupBy::Process:
        spec.pids = trace::PidSet{row.pidLabel};
        break;
      default:
        spec.pids = filter.pids;
        break;
    }
    return spec;
}

} // namespace detail

} // namespace deskpar::analysis

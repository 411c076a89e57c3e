#include "analysis/tlp.hh"

#include <algorithm>
#include <cstdint>
#include <utility>
#include <vector>

#include "trace/diagnostic.hh"
#include "trace/parse.hh"

namespace deskpar::analysis {

double
ConcurrencyProfile::tlp() const
{
    if (c.empty())
        return 0.0;
    double busy = 1.0 - c[0];
    if (busy <= 0.0)
        return 0.0;
    double weighted = 0.0;
    for (std::size_t i = 1; i < c.size(); ++i)
        weighted += c[i] * static_cast<double>(i);
    return weighted / busy;
}

unsigned
ConcurrencyProfile::maxConcurrency() const
{
    for (std::size_t i = c.size(); i-- > 1;) {
        if (c[i] > 0.0)
            return static_cast<unsigned>(i);
    }
    return 0;
}

double
ConcurrencyProfile::utilization() const
{
    double weighted = 0.0;
    for (std::size_t i = 1; i < c.size(); ++i)
        weighted += c[i] * static_cast<double>(i);
    return weighted;
}

namespace detail {

trace::Diagnostic
outOfRangeCpusDiagnostic(std::uint64_t count, unsigned header_cpus)
{
    trace::ParseError err;
    err.section = "CSwitch";
    err.field = "cpu";
    err.reason = std::to_string(count) +
                 " context switch(es) on cpu ids >= the header's " +
                 std::to_string(header_cpus) +
                 " logical CPUs; excluded from the concurrency "
                 "histogram";
    trace::Diagnostic diag;
    diag.severity = trace::Severity::Warning;
    diag.component = "analysis";
    diag.detail = std::move(err);
    return diag;
}

} // namespace detail

} // namespace deskpar::analysis

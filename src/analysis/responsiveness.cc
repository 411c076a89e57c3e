#include "analysis/responsiveness.hh"

#include <algorithm>
#include <cstring>
#include <vector>

namespace deskpar::analysis {

namespace detail {

Responsiveness
responsivenessFromDispatches(
    const trace::TraceBundle &bundle,
    const std::vector<sim::SimTime> &dispatches)
{
    Responsiveness out;

    const std::size_t prefix_len =
        std::strlen(kInputMarkerPrefix);
    for (const auto &marker : bundle.markers) {
        if (marker.label.compare(0, prefix_len,
                                 kInputMarkerPrefix) != 0) {
            continue;
        }
        ++out.inputs;
        auto it = std::lower_bound(dispatches.begin(),
                                   dispatches.end(),
                                   marker.timestamp);
        if (it == dispatches.end())
            continue;
        ++out.answered;
        out.latency.add(
            static_cast<double>(*it - marker.timestamp));
    }
    return out;
}

} // namespace detail

} // namespace deskpar::analysis

/**
 * @file
 * The sequential bottleneck reference: blocking::analyze's sweep and
 * finalization with an inline, stream-order per-thread fold.
 */

#include <algorithm>
#include <cstdint>
#include <map>
#include <utility>
#include <vector>

#include "reference/analysis_legacy.hh"

namespace deskpar::analysis::blocking::legacy {

BlockingReport
analyze(const trace::TraceBundle &bundle, const trace::PidSet &pids)
{
    using detail::Key;
    detail::SweepResult r;
    detail::sweep(bundle, pids, r);

    // Inline sequential fold: one ordered map, stream-order adds.
    struct WaitAgg
    {
        std::uint64_t waitNs = 0;
        std::uint64_t maxWaitNs = 0;
        std::uint64_t dispatches = 0;
    };
    std::map<Key, WaitAgg> waits;
    for (const auto &[key, wait] : r.waitSamples) {
        WaitAgg &agg = waits[key];
        agg.waitNs += wait;
        agg.maxWaitNs = std::max(agg.maxWaitNs, wait);
        ++agg.dispatches;
    }

    auto lookupNs = [](const std::map<Key, std::uint64_t> &map,
                       Key key) -> std::uint64_t {
        auto it = map.find(key);
        return it == map.end() ? 0 : it->second;
    };

    std::vector<ThreadBlocking> rows;
    for (Key key : detail::threadKeys(r)) {
        ThreadBlocking row;
        row.pid = key.first;
        row.tid = key.second;
        row.runNs = lookupNs(r.runNs, key);
        row.blockedNs = lookupNs(r.blockedNs, key);
        auto it = waits.find(key);
        if (it != waits.end()) {
            row.waitNs = it->second.waitNs;
            row.maxWaitNs = it->second.maxWaitNs;
            row.dispatches = it->second.dispatches;
        }
        rows.push_back(std::move(row));
    }

    BlockingReport report;
    detail::finalize(bundle, r, std::move(rows), report);
    return report;
}

} // namespace deskpar::analysis::blocking::legacy

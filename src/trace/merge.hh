/**
 * @file
 * Trace merging: combine bundles recorded on the same machine (or
 * align separately recorded ones) into one bundle for cross-workload
 * analysis — e.g. overlaying a solo-run baseline with a co-scheduled
 * run, or stitching session segments.
 */

#ifndef DESKPAR_TRACE_MERGE_HH
#define DESKPAR_TRACE_MERGE_HH

#include "trace/parse.hh"
#include "trace/session.hh"

namespace deskpar::trace {

/**
 * Merge @p a and @p b into one bundle:
 *  - the window is the union of both windows;
 *  - numLogicalCpus must match (same machine shape);
 *  - pids shared by both inputs must map to the same process name
 *    (else the traces are from incompatible runs);
 *  - all event streams are concatenated and re-sorted by time.
 * Incompatible inputs yield a ParseError (section "merge") naming
 * the mismatch; no exception is thrown.
 */
ParseResult<TraceBundle> mergeBundlesChecked(const TraceBundle &a,
                                             const TraceBundle &b);

/**
 * Stable-sort every event stream of @p bundle by timestamp (GPU
 * packets by start), in place. A stream already in order costs one
 * scan and is not touched.
 */
void sortBundle(TraceBundle &bundle);

/**
 * Settle @p bundle into the canonical form every analysis assumes;
 * every decoder ends with this call. Each stream is put in timestamp
 * order (sortBundle). A CPU count of 0 becomes the largest observed
 * CPU id + 1, capped at kMaxLogicalCpus; with no context switches it
 * stays 0. An empty window (stopTime <= startTime) becomes the
 * observed event extent.
 */
void canonicalize(TraceBundle &bundle);

} // namespace deskpar::trace

#endif // DESKPAR_TRACE_MERGE_HH

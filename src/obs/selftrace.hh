/**
 * @file
 * Self-tracing: serialize an obs::Snapshot as a TraceBundle so the
 * toolkit's own pipeline run can be analyzed by the toolkit's own
 * tools (Equation 1 pointed at ourselves).
 *
 * Mapping:
 *  - Each logical obs thread slot becomes one synthetic logical CPU
 *    (and tid slot + 1; tid 0 stays the idle thread).
 *  - Each SpanKind becomes a synthetic process ("deskpar.ingest",
 *    "deskpar.query", ...). At any instant a thread is attributed to
 *    the *innermost* open span's kind, so a CSV chunk decoded inside
 *    a pool task counts as ingest time, not pool time.
 *  - Context switches are emitted at every point the innermost kind
 *    changes (including to/from idle), which turns span nesting into
 *    an ordinary CPU Usage (Precise) stream: Session::concurrency over
 *    pid prefix "deskpar.ingest" is the parallel-ingest TLP.
 *  - Query-kind spans are additionally emitted as GPU compute
 *    packets, so the index-query phase shows up in the GPU
 *    utilization view (aggregate ratio = query concurrency).
 *  - Depth-0 Job spans also leave begin markers ("obs:<name>").
 *
 * The resulting bundle round-trips through writeEtl/decodeEtl like
 * any other trace; `deskpar stats` does exactly that to prove the
 * loop closes.
 */

#ifndef DESKPAR_OBS_SELFTRACE_HH
#define DESKPAR_OBS_SELFTRACE_HH

#include "obs/obs.hh"
#include "trace/session.hh"

namespace deskpar::obs {

/** Name prefix shared by every synthetic self-trace process. */
inline constexpr const char *kSelfTracePrefix = "deskpar.";

/** Synthetic pid of @p kind (stable across runs). */
trace::Pid selfTracePid(SpanKind kind);

/** Synthetic process name of @p kind ("deskpar.ingest", ...). */
std::string selfTraceProcessName(SpanKind kind);

/**
 * Build the synthetic bundle described above from @p snapshot.
 * The observation window is [0, max span end]; numLogicalCpus is the
 * snapshot's thread-slot count. An empty snapshot yields an empty
 * one-CPU bundle.
 */
trace::TraceBundle toTraceBundle(const Snapshot &snapshot);

} // namespace deskpar::obs

#endif // DESKPAR_OBS_SELFTRACE_HH

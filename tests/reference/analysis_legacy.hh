/**
 * @file
 * Single-sweep reference implementations of the analysis metrics,
 * kept as differential oracles for the index-backed Session paths.
 *
 * Each function here answers one metric with its own full pass over
 * the bundle, sharing nothing between calls — the straightforward
 * code the columnar TraceIndex, the fused query planner and the
 * flat bottleneck pass are proven bit-identical against. They
 * live under tests/, not src/, because no production path uses them;
 * the library deskpar_analysis_reference builds them for
 * analysis_tests, bench_query_fusion and bench_blocking. Do not
 * optimize these.
 *
 * Where a fold has exactly one implementation (the GPU packet fold,
 * the responsiveness marker match, the power spec model), the
 * reference calls the library's detail:: helper and differs only in
 * how it gathers the input.
 */

#ifndef DESKPAR_TESTS_REFERENCE_ANALYSIS_LEGACY_HH
#define DESKPAR_TESTS_REFERENCE_ANALYSIS_LEGACY_HH

#include <vector>

#include "analysis/blocking.hh"
#include "analysis/concurrency_timeline.hh"
#include "analysis/gpu_util.hh"
#include "analysis/intervals.hh"
#include "analysis/power.hh"
#include "analysis/query.hh"
#include "analysis/responsiveness.hh"
#include "analysis/tlp.hh"
#include "sim/cpu.hh"
#include "sim/gpu.hh"
#include "trace/filter.hh"
#include "trace/session.hh"

namespace deskpar::analysis::legacy {

/**
 * The concurrency profile of @p bundle over [@p t0, @p t1) for the
 * processes in @p pids (empty = every non-idle process), with the
 * header's CPU count as n: one direct sweep, fatal on an unknown CPU
 * count or an empty window, and the out-of-range-cpu warning emitted
 * on every call.
 */
ConcurrencyProfile computeConcurrency(const TraceBundle &bundle,
                                      const PidSet &pids,
                                      sim::SimTime t0, sim::SimTime t1);

/** Whole-bundle window. */
ConcurrencyProfile computeConcurrency(const TraceBundle &bundle,
                                      const PidSet &pids);

/**
 * GPU utilization over [@p t0, @p t1) for @p pids (empty = all): a
 * full scan of bundle.gpuPackets; fatal on an empty window.
 */
GpuUtilization computeGpuUtil(const TraceBundle &bundle,
                              const PidSet &pids, sim::SimTime t0,
                              sim::SimTime t1);

/** Whole-bundle window. */
GpuUtilization computeGpuUtil(const TraceBundle &bundle,
                              const PidSet &pids);

/**
 * Input-to-dispatch latency of @p pids, collecting the dispatch
 * column per call.
 */
Responsiveness computeResponsiveness(const TraceBundle &bundle,
                                     const PidSet &pids);

/** Machine-level power over the whole bundle window. */
PowerEstimate estimatePower(const TraceBundle &bundle,
                            const sim::CpuSpec &cpu,
                            const sim::GpuSpec &gpu);

/**
 * The straight-line query runner: evaluate @p query with one
 * independent full-trace sweep per row — computeConcurrency /
 * computeGpuUtil / direct event scans, nothing shared, warnings
 * emitted per sweep. What the fused planner (query_plan.hh) is
 * differentially tested against, and the "sequential per-metric
 * calls" baseline of bench_query_fusion.
 */
QueryResult runQuery(const TraceBundle &bundle, const Query &query);

/** runQuery over a batch, in order. */
std::vector<QueryResult> runQueries(const TraceBundle &bundle,
                                    const std::vector<Query> &queries);

} // namespace deskpar::analysis::legacy

namespace deskpar::analysis::blocking::legacy {

/**
 * The sequential bottleneck analysis: a per-CPU occupant state
 * machine over ordered maps keyed by (pid, tid), per-thread
 * aggregates accumulated inline, then sorting and the critical-path
 * backwalk. What blocking::analyze's flat dense-id pass is
 * differentially tested against.
 */
BlockingReport analyze(const trace::TraceBundle &bundle,
                       const trace::PidSet &pids);

} // namespace deskpar::analysis::blocking::legacy

namespace deskpar::analysis::detail {

/**
 * Busy bursts of @p spec in stream order (unsorted, inverted bursts
 * dropped): the reference the planner's sorted burst columns are
 * tested against.
 */
std::vector<Interval> collectBursts(const trace::TraceBundle &bundle,
                                    const TimelineSpec &spec);

/**
 * Ready-wait intervals of @p spec in stream order: one
 * [readyTime, timestamp) interval per target switch-in, zero-length
 * waits included (the latency mean counts every dispatch). Inverted
 * ready times are clamped to the timestamp, mirroring the lenient
 * readers, so a hand-built bundle cannot wrap the wait. The
 * reference the planner's end-sorted wait columns are tested
 * against.
 */
std::vector<Interval> collectWaits(const trace::TraceBundle &bundle,
                                   const TimelineSpec &spec);

/**
 * Accumulate @p waits (as collectWaits emits them) over
 * [@p t0, @p t1): integer sums, so the stream-order fold and the
 * planner's sorted columns agree bit for bit.
 */
WaitFold foldWaits(const std::vector<Interval> &waits, sim::SimTime t0,
                   sim::SimTime t1);

/**
 * The direct single-sweep concurrency histogram over [@p t0, @p t1),
 * generalized over TimelineSpec, with the header's CPU count
 * (bundle.numLogicalCpus) as n: the reference the timeline queries
 * are tested against. Panics ("negative concurrency") when a
 * disordered stream closes a CPU before opening it inside the
 * window. Emits no warning: the count lands in
 * ConcurrencyProfile::outOfRangeCpuEvents. The CPU count must be
 * nonzero and the window non-empty.
 */
ConcurrencyProfile sweepConcurrency(const trace::TraceBundle &bundle,
                                    const TimelineSpec &spec,
                                    sim::SimTime t0, sim::SimTime t1);

/**
 * Reference concurrency profile for an arbitrary filter: the fatal
 * checks plus one direct sweep, warning emitted. With a
 * default-shaped spec this is exactly legacy::computeConcurrency.
 */
ConcurrencyProfile referenceConcurrency(
    const trace::TraceBundle &bundle, const TimelineSpec &spec,
    sim::SimTime t0, sim::SimTime t1);

} // namespace deskpar::analysis::detail

#endif // DESKPAR_TESTS_REFERENCE_ANALYSIS_LEGACY_HH

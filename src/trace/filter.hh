/**
 * @file
 * Process filtering: restrict a TraceBundle to the processes that
 * belong to one application. This is what makes the paper's metric
 * *application-level* TLP (Section III-B) rather than the system-wide
 * TLP of the 2000/2010 studies.
 */

#ifndef DESKPAR_TRACE_FILTER_HH
#define DESKPAR_TRACE_FILTER_HH

#include <string>
#include <unordered_set>
#include <vector>

#include "trace/session.hh"

namespace deskpar::trace {

/** A set of pids constituting one application. */
using PidSet = std::unordered_set<Pid>;

/**
 * Collect the pids of every process whose name starts with
 * @p name_prefix (multi-process applications like Chrome register
 * e.g. "chrome", "chrome-renderer-1", "chrome-gpu"). Served from the
 * bundle's lazy name index (TraceBundle::pidsByPrefix), so repeated
 * lookups do not rescan the name table.
 */
PidSet pidsWithPrefix(const TraceBundle &bundle,
                      const std::string &name_prefix);

/**
 * Every non-idle pid seen anywhere in @p bundle — the name table,
 * either side of a context switch, GPU packets, or lifecycle events.
 * This is the replay default when no application prefix is given:
 * unlike pidsWithPrefix it also covers events whose pid lost its
 * name-table entry to a corrupt ProcessNames section.
 */
PidSet allApplicationPids(const TraceBundle &bundle);

/**
 * The pids a replay analyzes: allApplicationPids when @p appPrefix is
 * empty, else pidsWithPrefix. An empty result is a trace problem, not
 * a usage problem: throws TraceParseError (section "replay", source
 * @p path). Used by analysis::Service::analyze, which answers
 * `deskpar replay` and the serve analyze op.
 */
PidSet replayPids(const TraceBundle &bundle, const std::string &path,
                  const std::string &appPrefix);

/**
 * Return a copy of @p bundle containing only events attributable to
 * @p pids:
 *  - cswitches where either side belongs to the set (switches to
 *    unrelated threads are rewritten as switches to idle, preserving
 *    per-CPU busy intervals of the application);
 *  - GPU packets, frames and lifecycle events of those pids;
 *  - all markers (they annotate the run, not a process).
 */
TraceBundle filterByPids(const TraceBundle &bundle, const PidSet &pids);

} // namespace deskpar::trace

#endif // DESKPAR_TRACE_FILTER_HH

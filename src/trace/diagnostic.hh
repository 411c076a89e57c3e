/**
 * @file
 * One diagnostic currency for the whole pipeline.
 *
 * Before this header, every layer reported oddities its own way:
 * trace readers filled IngestReport with ParseErrors, the analysis
 * sweeps printed out-of-range-CPU warnings straight to stderr, and
 * the suite runner carried per-job failure state in JobFailure. A
 * caller (the CLI, a test, a harness embedding the library) had no
 * single place to observe "everything that went wrong in this run".
 *
 * A Diagnostic is a severity + originating component wrapped around
 * the existing ParseError location payload (which already knows how
 * to say *where*: source/section/field/line/offset/record).
 * Producers hand Diagnostics to emitDiagnostic(); where they land is
 * the consumer's choice:
 *
 *  - by default they go to stderr via warn(), exactly the old
 *    behavior, so nothing changes for existing CLI users;
 *  - a consumer can install a DiagnosticSink (ScopedDiagnosticSink
 *    for RAII) and collect them instead — CollectingDiagnosticSink
 *    is the batteries-included collector used by the tests and by
 *    `deskpar replay`.
 *
 * Emission is thread-safe (the suite runner and parallel decoders
 * emit from worker threads); a sink's report() may be called
 * concurrently and must synchronize itself (the collecting sink
 * does).
 */

#ifndef DESKPAR_TRACE_DIAGNOSTIC_HH
#define DESKPAR_TRACE_DIAGNOSTIC_HH

#include <atomic>
#include <mutex>
#include <string>
#include <vector>

#include "trace/parse.hh"

namespace deskpar::trace {

/** How bad it is. */
enum class Severity {
    /** Progress notes; suppressed by the default sink. */
    Info,
    /** Degraded but usable output (lenient skips, excluded events). */
    Warning,
    /** Lost output (a failed file, a rejected job). */
    Error,
};

/** Human-readable severity name ("info", "warning", "error"). */
const char *severityName(Severity severity);

/**
 * One pipeline diagnostic: what happened (detail, reusing the
 * ParseError location vocabulary), how bad it is, and which layer
 * said it ("trace", "analysis", "runner").
 */
struct Diagnostic
{
    Severity severity = Severity::Error;
    std::string component;
    ParseError detail;

    /** One line: "[warning] analysis: <detail location + reason>". */
    std::string str() const;
};

/** Where emitted diagnostics go. */
class DiagnosticSink
{
  public:
    virtual ~DiagnosticSink() = default;

    /** May be called from any thread; must synchronize itself. */
    virtual void report(const Diagnostic &diagnostic) = 0;
};

/**
 * Hand @p diagnostic to the installed sink (default: warnings and
 * errors to stderr via warn(), infos dropped).
 */
void emitDiagnostic(const Diagnostic &diagnostic);

/** Convenience: wrap a bare @p reason with no location payload. */
void emitDiagnostic(Severity severity, const std::string &component,
                    const std::string &reason);

/**
 * Emit @p diagnostic at most once per @p emitted flag: the first
 * caller to flip the flag emits, every later caller (any thread) is
 * a no-op. The dedup primitive for per-trace warnings that would
 * otherwise repeat once per query in a batch — the owner of the
 * deduped scope (a TraceIndex) embeds the flag.
 * Returns true when this call emitted.
 */
bool emitDiagnosticOnce(std::atomic<bool> &emitted,
                        const Diagnostic &diagnostic);

/**
 * Install @p sink as the process-global diagnostic consumer and
 * return the previous one (nullptr = the default stderr sink).
 * Prefer ScopedDiagnosticSink.
 */
DiagnosticSink *installDiagnosticSink(DiagnosticSink *sink);

/**
 * Install @p sink for the *calling thread only* and return the
 * thread's previous sink. A thread-scoped sink takes precedence over
 * the process-global one, so concurrent request handlers (the
 * `deskpar serve` worker pool) can each capture their own request's
 * diagnostics without racing over the global slot. Diagnostics
 * emitted from helper threads a request fans out to (parallelFor
 * with jobs > 1) do not see the requester's thread sink — they fall
 * through to the global sink — so per-request capture is exact only
 * for requests that analyze inline (jobs == 1, the server default).
 * Prefer ScopedThreadDiagnosticSink.
 */
DiagnosticSink *installThreadDiagnosticSink(DiagnosticSink *sink);

/** Thread-safe sink that stores everything it is given. */
class CollectingDiagnosticSink : public DiagnosticSink
{
  public:
    void report(const Diagnostic &diagnostic) override;

    /** Snapshot of everything collected so far. */
    std::vector<Diagnostic> diagnostics() const;

    /** Collected count at @p severity or worse. */
    std::size_t count(Severity atLeast = Severity::Info) const;

  private:
    mutable std::mutex mutex_;
    std::vector<Diagnostic> diagnostics_;
};

/** Install a sink for the current scope, restore the old on exit. */
class ScopedDiagnosticSink
{
  public:
    explicit ScopedDiagnosticSink(DiagnosticSink &sink)
        : previous_(installDiagnosticSink(&sink))
    {}

    ~ScopedDiagnosticSink() { installDiagnosticSink(previous_); }

    ScopedDiagnosticSink(const ScopedDiagnosticSink &) = delete;
    ScopedDiagnosticSink &
    operator=(const ScopedDiagnosticSink &) = delete;

  private:
    DiagnosticSink *previous_;
};

/**
 * Install a sink for the current thread and scope, restore the
 * thread's previous sink on exit (see installThreadDiagnosticSink).
 */
class ScopedThreadDiagnosticSink
{
  public:
    explicit ScopedThreadDiagnosticSink(DiagnosticSink &sink)
        : previous_(installThreadDiagnosticSink(&sink))
    {}

    ~ScopedThreadDiagnosticSink()
    {
        installThreadDiagnosticSink(previous_);
    }

    ScopedThreadDiagnosticSink(const ScopedThreadDiagnosticSink &) =
        delete;
    ScopedThreadDiagnosticSink &
    operator=(const ScopedThreadDiagnosticSink &) = delete;

  private:
    DiagnosticSink *previous_;
};

} // namespace deskpar::trace

#endif // DESKPAR_TRACE_DIAGNOSTIC_HH

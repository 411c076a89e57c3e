/**
 * @file
 * SuiteRunner: a work-stealing thread pool that fans the measurement
 * pipeline's independent (workload, config, iteration) simulations
 * across host threads.
 *
 * Every simulation owns its Machine outright and shares no mutable
 * state with its siblings (workload models only read their immutable
 * parameters; all randomness forks from the machine seed), so the
 * fan-out needs no locking inside the sim. The runner preserves the
 * serial protocol's per-iteration seed derivation
 * (`seedBase + iter * 7919`) and folds iterations back in ascending
 * order, so aggregated results are bit-identical to runWorkload()
 * regardless of thread count or scheduling.
 *
 * Thread count resolution: explicit constructor argument, else the
 * DESKPAR_JOBS environment variable, else hardware concurrency.
 * With one thread the runner executes inline on the calling thread
 * (no pool), which is the CI serial leg.
 *
 * The runner only simulates and opens no trace files: `deskpar
 * replay` and `stats` send analysis::Service one request per file.
 */

#ifndef DESKPAR_APPS_RUNNER_HH
#define DESKPAR_APPS_RUNNER_HH

#include <functional>
#include <string>
#include <vector>

#include "apps/harness.hh"
#include "trace/diagnostic.hh"

namespace deskpar::apps {

/**
 * One fan-out unit: a workload under one option set. The factory is
 * invoked once per iteration, on the worker thread, so each sim task
 * gets a private model instance.
 */
struct SuiteJob
{
    /** Diagnostic label ("handbrake@4c"). */
    std::string label;
    /** Builds a fresh model instance for one iteration. */
    std::function<WorkloadPtr()> factory;
    RunOptions options;
};

/** Job running the registry workload @p id under @p options. */
SuiteJob suiteJob(const std::string &id, const RunOptions &options);

/** One suite job that could not produce a result. */
struct JobFailure
{
    /** Submission index within the batch. */
    std::size_t job = 0;
    std::string label;
    /** The FatalError's text. */
    std::string reason;

    /** This failure as an error-severity "runner" Diagnostic. */
    trace::Diagnostic diagnostic() const;
};

/**
 * Outcome of a recoverable batch: per-job results plus the failures
 * that degraded it. results[j] is meaningful iff !failed(j).
 */
struct SuiteOutcome
{
    std::vector<AppRunResult> results;
    std::vector<JobFailure> failures;

    bool ok() const { return failures.empty(); }
    bool failed(std::size_t job) const;
};

/**
 * The parallel suite executor.
 */
class SuiteRunner
{
  public:
    /** @p threads = 0 resolves via defaultThreads(). */
    explicit SuiteRunner(unsigned threads = 0);

    /** Worker threads this runner fans out to. */
    unsigned threads() const { return threads_; }

    /**
     * Run every job, returning results in submission order (the
     * ordering is deterministic: scheduling never reorders results).
     * The first exception a task throws is rethrown here, after all
     * in-flight tasks finish; tasks not yet started are cancelled.
     */
    std::vector<AppRunResult> run(const std::vector<SuiteJob> &jobs) const;

    /**
     * Degraded-batch variant: a FatalError in one job fails *that
     * job only* — its remaining iterations are cancelled, every
     * other job still runs, and the failure lands in the outcome's
     * failure list. PanicError and non-deskpar exceptions still
     * abort the batch: those are bugs, not data.
     */
    SuiteOutcome
    runRecoverable(const std::vector<SuiteJob> &jobs) const;

    /**
     * Thread count from the DESKPAR_JOBS environment variable (a
     * positive integer), falling back to hardware concurrency.
     */
    static unsigned defaultThreads();

  private:
    unsigned threads_;
};

/** Convenience: run @p jobs on a default-sized SuiteRunner. */
std::vector<AppRunResult> runSuite(const std::vector<SuiteJob> &jobs);

} // namespace deskpar::apps

#endif // DESKPAR_APPS_RUNNER_HH

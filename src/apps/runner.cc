#include "apps/runner.hh"

#include <algorithm>
#include <atomic>
#include <mutex>
#include <optional>
#include <utility>

#include "apps/registry.hh"
#include "obs/obs.hh"
#include "sim/logging.hh"
#include "sim/parallel.hh"
#include "trace/diagnostic.hh"

namespace deskpar::apps {
namespace {

/** One (job, iteration) simulation instance. */
struct SimTask
{
    std::size_t job = 0;
    unsigned iter = 0;
};

/** Run one task, writing its slot in the per-job output matrix. */
void
runTask(const std::vector<SuiteJob> &jobs, const SimTask &task,
        std::vector<std::vector<std::optional<IterationOutput>>>
            &outputs,
        std::vector<std::string> &names)
{
    const SuiteJob &job = jobs[task.job];
    obs::Span span("suite.sim", obs::SpanKind::Job, task.job);
    WorkloadPtr model = job.factory();
    if (!model)
        fatal("SuiteRunner: job '" + job.label +
              "' factory returned null");
    if (task.iter == 0)
        names[task.job] = model->spec().name;
    outputs[task.job][task.iter] =
        runIteration(*model, job.options, task.iter);
}

/** Shared submission-time validation for run()/runRecoverable(). */
std::vector<SimTask>
buildTasks(const std::vector<SuiteJob> &jobs)
{
    std::vector<SimTask> tasks;
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (!jobs[j].factory)
            fatal("SuiteRunner: job '" + jobs[j].label +
                  "' has no factory");
        if (jobs[j].options.iterations == 0)
            fatal("runWorkload: zero iterations");
        for (unsigned i = 0; i < jobs[j].options.iterations; ++i)
            tasks.push_back({j, i});
    }
    return tasks;
}

} // namespace

SuiteJob
suiteJob(const std::string &id, const RunOptions &options)
{
    SuiteJob job;
    job.label = id;
    job.factory = [id] { return makeWorkload(id); };
    job.options = options;
    return job;
}

trace::Diagnostic
JobFailure::diagnostic() const
{
    trace::Diagnostic d;
    d.severity = trace::Severity::Error;
    d.component = "runner";
    d.detail.source = label;
    d.detail.reason = reason;
    return d;
}

bool
SuiteOutcome::failed(std::size_t job) const
{
    for (const JobFailure &f : failures) {
        if (f.job == job)
            return true;
    }
    return false;
}

SuiteRunner::SuiteRunner(unsigned threads)
    : threads_(threads ? threads : defaultThreads())
{}

unsigned
SuiteRunner::defaultThreads()
{
    return sim::resolveJobs();
}

std::vector<AppRunResult>
SuiteRunner::run(const std::vector<SuiteJob> &jobs) const
{
    obs::Span batchSpan("suite.batch", obs::SpanKind::Job,
                        jobs.size());
    std::vector<SimTask> tasks = buildTasks(jobs);

    std::vector<std::vector<std::optional<IterationOutput>>> outputs(
        jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j)
        outputs[j].resize(jobs[j].options.iterations);
    std::vector<std::string> names(jobs.size());

    // parallelFor runs the whole suite inline (serial task order)
    // for one worker or one task, else on the work-stealing pool.
    sim::parallelFor(threads_, tasks.size(), [&](std::size_t index) {
        runTask(jobs, tasks[index], outputs, names);
    });

    // Deterministic assembly: fold iterations in ascending order per
    // job, jobs in submission order — bitwise identical to the serial
    // runWorkload() loop.
    std::vector<AppRunResult> results(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        results[j].agg.app = names[j];
        unsigned iterations = jobs[j].options.iterations;
        for (unsigned i = 0; i < iterations; ++i) {
            foldIteration(results[j], std::move(*outputs[j][i]),
                          i + 1 == iterations);
        }
    }
    return results;
}

SuiteOutcome
SuiteRunner::runRecoverable(const std::vector<SuiteJob> &jobs) const
{
    obs::Span batchSpan("suite.batch", obs::SpanKind::Job,
                        jobs.size());
    std::vector<SimTask> tasks = buildTasks(jobs);

    std::vector<std::vector<std::optional<IterationOutput>>> outputs(
        jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j)
        outputs[j].resize(jobs[j].options.iterations);
    std::vector<std::string> names(jobs.size());

    // One flag per job: set on first failure so siblings of a failed
    // job are cancelled instead of run (a corrupt trace fails the
    // same way every iteration).
    std::vector<std::atomic<bool>> failed(jobs.size());
    std::vector<JobFailure> failures;
    std::mutex failMutex;

    auto recordFailure = [&](std::size_t j, const FatalError &e) {
        std::lock_guard<std::mutex> lock(failMutex);
        if (failed[j].exchange(true, std::memory_order_relaxed))
            return;
        JobFailure f;
        f.job = j;
        f.label = jobs[j].label;
        f.reason = e.what();
        failures.push_back(std::move(f));
    };

    // PanicError and foreign exceptions abort the whole batch (they
    // are bugs, not bad input); only FatalError degrades per-job.
    auto runOne = [&](const SimTask &task) {
        if (failed[task.job].load(std::memory_order_relaxed))
            return;
        try {
            runTask(jobs, task, outputs, names);
        } catch (const PanicError &) {
            throw;
        } catch (const FatalError &e) {
            recordFailure(task.job, e);
        }
    };

    sim::parallelFor(threads_, tasks.size(), [&](std::size_t index) {
        runOne(tasks[index]);
    });

    // Scheduling may interleave failures arbitrarily; report them in
    // submission order so batch output is deterministic.
    std::sort(failures.begin(), failures.end(),
              [](const JobFailure &a, const JobFailure &b) {
                  return a.job < b.job;
              });

    SuiteOutcome outcome;
    outcome.failures = std::move(failures);

    outcome.results.resize(jobs.size());
    for (std::size_t j = 0; j < jobs.size(); ++j) {
        if (failed[j].load(std::memory_order_relaxed)) {
            outcome.results[j].agg.app = jobs[j].label;
            continue;
        }
        outcome.results[j].agg.app = names[j];
        unsigned iterations = jobs[j].options.iterations;
        for (unsigned i = 0; i < iterations; ++i) {
            foldIteration(outcome.results[j],
                          std::move(*outputs[j][i]),
                          i + 1 == iterations);
        }
    }
    return outcome;
}

std::vector<AppRunResult>
runSuite(const std::vector<SuiteJob> &jobs)
{
    return SuiteRunner().run(jobs);
}

} // namespace deskpar::apps

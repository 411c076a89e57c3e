/**
 * @file
 * The work-stealing fan-out primitive shared by the suite runner and
 * the trace-ingestion layer.
 *
 * PR 1 introduced a lock-based work-stealing pool inside
 * apps::SuiteRunner; this header extracts it as a generic
 * parallelFor() so lower layers (chunk-parallel CSV decode,
 * block-parallel .etlc decode) can fan out without depending on the
 * apps library. Tasks are identified by index; the caller's functor
 * must only touch per-index state (or synchronize itself).
 *
 * Exception contract: the first exception thrown by any task aborts
 * the remaining not-yet-started tasks and is rethrown on the calling
 * thread after every in-flight task finished. With one worker (or one
 * task) everything runs inline on the calling thread in ascending
 * index order — the deterministic serial reference.
 *
 * Header-only so deskpar_trace can use it without a link-time
 * dependency on deskpar_sim (the dependency arrow between those two
 * libraries points the other way).
 */

#ifndef DESKPAR_SIM_PARALLEL_HH
#define DESKPAR_SIM_PARALLEL_HH

#include <atomic>
#include <cstddef>
#include <cstdlib>
#include <deque>
#include <exception>
#include <mutex>
#include <thread>
#include <vector>

#include "obs/obs.hh"
#include "sim/logging.hh"

namespace deskpar::sim {

/**
 * Resolve a worker-thread count: an explicit @p requested value wins,
 * else the DESKPAR_JOBS environment variable (a positive integer),
 * else hardware concurrency. Never returns 0.
 */
inline unsigned
resolveJobs(unsigned requested = 0)
{
    if (requested > 0)
        return requested;
    if (const char *env = std::getenv("DESKPAR_JOBS")) {
        char *end = nullptr;
        unsigned long n = std::strtoul(env, &end, 10);
        if (end && *end == '\0' && n > 0 && n < 1024)
            return static_cast<unsigned>(n);
        warn("ignoring invalid DESKPAR_JOBS value '" +
             std::string(env) + "'");
    }
    unsigned hw = std::thread::hardware_concurrency();
    return hw ? hw : 1;
}

/**
 * Lock-based work-stealing task queues: every worker owns a deque it
 * pops from the front of; an empty worker steals from the back of a
 * victim's deque. Tasks are coarse (a whole simulation, a multi-
 * megabyte parse chunk), so one mutex per deque is plenty.
 */
class StealingQueues
{
  public:
    StealingQueues(std::size_t workers, std::size_t tasks)
        : queues_(workers)
    {
        // Round-robin initial distribution; stealing rebalances
        // whatever the static split gets wrong.
        for (std::size_t t = 0; t < tasks; ++t)
            queues_[t % workers].tasks.push_back(t);
    }

    /**
     * Pop from our own deque, else steal; false when all are dry.
     * @p stolen (optional) reports whether the task came from a
     * victim's deque rather than our own.
     */
    bool
    next(std::size_t self, std::size_t &task, bool *stolen = nullptr)
    {
        if (stolen)
            *stolen = false;
        auto &own = queues_[self];
        {
            std::lock_guard<std::mutex> lock(own.mutex);
            if (!own.tasks.empty()) {
                task = own.tasks.front();
                own.tasks.pop_front();
                return true;
            }
        }
        for (std::size_t i = 1; i < queues_.size(); ++i) {
            auto &victim = queues_[(self + i) % queues_.size()];
            std::lock_guard<std::mutex> lock(victim.mutex);
            if (!victim.tasks.empty()) {
                task = victim.tasks.back();
                victim.tasks.pop_back();
                if (stolen)
                    *stolen = true;
                return true;
            }
        }
        return false;
    }

  private:
    struct PerWorker
    {
        std::mutex mutex;
        std::deque<std::size_t> tasks;
    };
    std::deque<PerWorker> queues_;
};

/**
 * Run fn(i) for every i in [0, tasks) on up to @p workers threads.
 * See the header comment for the inline-serial and exception
 * contracts.
 */
template <typename Fn>
void
parallelFor(unsigned workers, std::size_t tasks, Fn &&fn)
{
    std::size_t pool_size =
        std::min<std::size_t>(workers ? workers : 1, tasks);
    if (pool_size <= 1) {
        for (std::size_t i = 0; i < tasks; ++i) {
            obs::Span span("parallel.task", obs::SpanKind::Task, i);
            fn(i);
        }
        return;
    }

    StealingQueues queues(pool_size, tasks);
    std::atomic<bool> abort{false};
    std::exception_ptr firstError;
    std::mutex errorMutex;

    auto worker = [&](std::size_t self) {
        obs::Span workerSpan("parallel.worker", obs::SpanKind::Task,
                             self);
        std::size_t index;
        bool stolen = false;
        while (!abort.load(std::memory_order_relaxed) &&
               queues.next(self, index, &stolen)) {
            if (stolen)
                obs::counterAdd("parallel.steals", 1);
            try {
                obs::Span span("parallel.task", obs::SpanKind::Task,
                               index);
                fn(index);
            } catch (...) {
                std::lock_guard<std::mutex> lock(errorMutex);
                if (!firstError)
                    firstError = std::current_exception();
                abort.store(true, std::memory_order_relaxed);
            }
        }
    };

    std::vector<std::thread> pool;
    pool.reserve(pool_size);
    for (std::size_t w = 0; w < pool_size; ++w)
        pool.emplace_back(worker, w);
    for (auto &thread : pool)
        thread.join();
    if (firstError)
        std::rethrow_exception(firstError);
}

} // namespace deskpar::sim

#endif // DESKPAR_SIM_PARALLEL_HH

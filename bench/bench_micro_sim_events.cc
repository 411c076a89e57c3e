/**
 * @file
 * Event-queue microbenchmark: simulated-events/sec of the 4-ary
 * implicit-heap EventQueue (sim/event_queue.hh) A/B against the
 * preserved binary-heap + std::function implementation
 * (tests/reference/event_queue_legacy.hh).
 *
 * The churn is the simulator's real steady-state pattern: a fixed
 * population of self-rescheduling events with pseudo-random delays
 * (timer wheels, thread wakeups), callbacks whose captures carry a
 * label string (the input-driver shape that pushed std::function
 * past its SSO into malloc), and a steady trickle of
 * cancel-and-rearm (quantum preemption). Both queues execute the
 * byte-for-byte identical schedule — same LCG, same pop order by
 * the differential-tested contract — so the wall-time ratio is pure
 * implementation cost.
 *
 * Prints both event rates and the speedup. It fails only when the
 * two executions diverge; the ratio itself is not gated (it varies
 * with the host, and the simulator's end-to-end speed is measured by
 * perfbench's `suite` workload).
 */

#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <string>
#include <utility>
#include <vector>

#include "bench_util.hh"
#include "reference/event_queue_legacy.hh"
#include "sim/event_queue.hh"

using namespace deskpar;

namespace {

/**
 * Drives one queue through the churn script. Deterministic: every
 * decision comes from the LCG, which both queue types consume in the
 * same order because pop order is identical.
 */
template <typename Queue>
struct Churner
{
    Queue queue;
    std::vector<typename Queue::Handle> handles;
    std::uint64_t fired = 0;
    std::uint64_t armed = 0;
    std::uint64_t target = 0;
    std::uint64_t lcg = 0x9e3779b97f4a7c15ULL;
    std::uint64_t sink = 0;
    // The realistic capture: event delivery carries its label
    // payload. Trivially copyable so the payload itself costs the
    // same on both sides — the measured difference is what the
    // queues do with a 40-byte closure (legacy std::function heap-
    // allocates it; InlineCallback keeps it inline).
    struct Label
    {
        char text[24];
    };
    Label label = {"bench.input.keystroke"};

    sim::SimDuration
    nextDelay()
    {
        lcg = lcg * 6364136223846793005ULL +
              1442695040888963407ULL;
        // 1..5000 ticks: heap depths of a few thousand, like a
        // full-suite machine mid-run. Multiply-shift scaling, not
        // `%`: a per-event integer division would be driver noise
        // paid identically on both sides.
        return static_cast<sim::SimDuration>(
            1 + (((lcg >> 32) * 5000) >> 32));
    }

    void
    arm(std::size_t slot)
    {
        ++armed;
        // this + slot + the label: 40 bytes of capture. Fits
        // InlineCallback's inline storage; blows past
        // std::function's SSO.
        handles[slot] = queue.scheduleAfter(
            nextDelay(), [this, slot, tag = label]() {
                sink += static_cast<unsigned char>(tag.text[0]);
                fire(slot);
            });
    }

    void
    fire(std::size_t slot)
    {
        ++fired;
        if (armed < target)
            arm(slot);
        // Preemption trickle: every 16th fire cancels a victim's
        // pending event and re-arms it, leaving a stale heap entry
        // behind for pop to skip.
        if ((fired & 15) == 0 && armed < target) {
            lcg = lcg * 6364136223846793005ULL +
                  1442695040888963407ULL;
            std::size_t victim = (lcg >> 33) % handles.size();
            if (handles[victim].pending()) {
                queue.cancel(handles[victim]);
                arm(victim);
            }
        }
    }

    /** Run the whole script; returns events fired. */
    std::uint64_t
    run(std::size_t population, std::uint64_t totalArmed)
    {
        handles.resize(population);
        target = totalArmed;
        for (std::size_t slot = 0; slot < population; ++slot)
            arm(slot);
        queue.runAll();
        return fired;
    }
};

} // namespace

int
main()
{
    bench::banner("Event-queue throughput - 4-ary heap vs legacy "
                  "binary heap",
                  "simulation substrate, Section III methodology");

    std::size_t population = 4096;
    std::uint64_t totalArmed = 1'500'000;
    unsigned reps = 5;
    if (const char *fast = std::getenv("DESKPAR_FAST");
        fast && fast[0] == '1') {
        totalArmed = 300'000;
        reps = 3;
    }

    std::printf("population %zu pending, %llu scheduled events, "
                "min of %u reps\n\n",
                population,
                static_cast<unsigned long long>(totalArmed), reps);

    // One pilot run of each to cross-check the two executions are
    // the same script (identical fire counts and final clocks).
    std::uint64_t firedLegacy = 0, firedNew = 0;
    sim::SimTime endLegacy = 0, endNew = 0;
    {
        Churner<sim::legacy::EventQueue> pilot;
        firedLegacy = pilot.run(population, totalArmed);
        endLegacy = pilot.queue.now();
    }
    {
        Churner<sim::EventQueue> pilot;
        pilot.queue.reserve(population);
        firedNew = pilot.run(population, totalArmed);
        endNew = pilot.queue.now();
    }
    if (firedLegacy != firedNew || endLegacy != endNew) {
        std::fprintf(stderr,
                     "FAIL: executions diverge (fired %llu vs %llu, "
                     "end %lld vs %lld)\n",
                     static_cast<unsigned long long>(firedLegacy),
                     static_cast<unsigned long long>(firedNew),
                     static_cast<long long>(endLegacy),
                     static_cast<long long>(endNew));
        return 1;
    }

    double wallLegacy = bench::minWallSeconds(reps, [&]() {
        Churner<sim::legacy::EventQueue> churner;
        churner.run(population, totalArmed);
    });
    double wallNew = bench::minWallSeconds(reps, [&]() {
        Churner<sim::EventQueue> churner;
        churner.queue.reserve(population);
        churner.run(population, totalArmed);
    });

    double speedup = wallLegacy / wallNew;
    std::printf("legacy  %8.3f ms  (%6.1f M events/s)\n",
                wallLegacy * 1e3,
                static_cast<double>(firedLegacy) / wallLegacy / 1e6);
    std::printf("4-ary   %8.3f ms  (%6.1f M events/s)\n",
                wallNew * 1e3,
                static_cast<double>(firedNew) / wallNew / 1e6);
    std::printf("speedup %.2fx; %llu inline-callback heap "
                "fallbacks process-wide\n",
                speedup,
                static_cast<unsigned long long>(
                    sim::InlineCallback::heapFallbacks()));
    return 0;
}

/**
 * @file
 * OsScheduler: a Windows-flavored preemptive round-robin scheduler
 * over the active logical CPUs.
 *
 * Responsibilities:
 *  - dispatch ready threads onto idle logical CPUs, preferring CPUs
 *    whose SMT sibling is idle (as Windows does);
 *  - quantum-based round-robin preemption when more threads are
 *    runnable than CPUs are active (core-scaling experiments);
 *  - per-thread execution-rate modeling: rate = clock(turbo ladder)
 *    x SMT contention factor, re-evaluated whenever CPU occupancy
 *    changes anywhere in the package;
 *  - CSwitch trace emission for every dispatch/vacate (the "CPU Usage
 *    (Precise)" provider the paper's TLP measurement consumes);
 *  - SMT-contention statistics backing the Section V-C-2 analysis.
 */

#ifndef DESKPAR_SIM_SCHEDULER_HH
#define DESKPAR_SIM_SCHEDULER_HH

#include <array>
#include <cstdint>
#include <deque>
#include <vector>

#include "sim/cpu.hh"
#include "sim/memory.hh"
#include "sim/event_queue.hh"
#include "sim/thread.hh"
#include "sim/types.hh"
#include "trace/session.hh"

namespace deskpar::sim {

/**
 * Aggregate scheduler statistics (whole run).
 */
struct SchedulerStats
{
    std::uint64_t contextSwitches = 0;
    /** Total thread-on-CPU time summed over logical CPUs. */
    SimDuration busyTime = 0;
    /** Thread-on-CPU time while the SMT sibling was also busy. */
    SimDuration smtSharedTime = 0;
    /** Work units retired while the sibling was busy / idle. */
    WorkUnits workShared = 0;
    WorkUnits workAlone = 0;

    /**
     * Estimated fraction of busy time stalled on intra-core resource
     * contention (the paper's L1/FU-contention proxy, which VTune
     * showed rising from 5.3% to 10.7% with SMT for HandBrake).
     */
    double contentionStallFraction() const;
};

/**
 * The scheduler. One instance per Machine.
 */
class OsScheduler
{
  public:
    OsScheduler(const CpuTopology &topology, std::vector<bool> active_mask,
                SimDuration quantum, EventQueue &queue,
                trace::TraceSession &session);

    /** Attach the LLC contention model (nullptr disables it). */
    void setLlcModel(const LlcModel *model) { llcModel_ = model; }

    OsScheduler(const OsScheduler &) = delete;
    OsScheduler &operator=(const OsScheduler &) = delete;

    /** Number of active logical CPUs. */
    unsigned activeCpuCount() const { return activeCpuCount_; }

    /**
     * Size of the cpu-id space in use: highest active logical cpu id
     * plus one. Differs from activeCpuCount() when the active mask is
     * sparse (SMT disabled pins one thread per physical core, so ids
     * go 0, 2, 4, ...). Trace headers must record this, not the
     * count, or events on the high ids contradict the header.
     */
    unsigned activeCpuSpan() const { return activeCpuSpan_; }

    /** True if logical CPU @p cpu is enabled. */
    bool
    cpuActive(CpuId cpu) const
    {
        return cpus_[cpu].active;
    }

    /**
     * Hand a thread with pending compute work to the scheduler.
     * Called by the thread runtime; the thread must not be running.
     * Elevated threads may preempt lower-priority running threads
     * when no CPU is idle.
     */
    void makeReady(SimThread &thread);

    /** Threads currently waiting for a CPU. */
    std::size_t readyCount() const;

    /** Thread currently on @p cpu (nullptr when idle). */
    SimThread *running(CpuId cpu) const { return cpus_[cpu].running; }

    const SchedulerStats &stats() const { return stats_; }

    /** Effective clock (GHz) at the current occupancy. */
    double currentClockGhz() const;

  private:
    struct CpuState
    {
        bool active = false;
        SimThread *running = nullptr;
        /** Execution rate of the running thread, work units per ns. */
        double rate = 0.0;
        /** Last time remainingWork was accrued. */
        SimTime lastAccrue = 0;
        EventQueue::Handle completionEvent;
        EventQueue::Handle quantumEvent;
    };

    /** Deduct elapsed work from the thread running on @p cpu. */
    void accrue(CpuId cpu);

    /** Accrue every CPU; call before any occupancy change. */
    void accrueAll();

    /** Count of physical cores with at least one busy logical CPU. */
    unsigned busyPhysicalCores() const;

    /** True if the SMT sibling of @p cpu hosts a running thread. */
    bool siblingBusy(CpuId cpu) const;

    /**
     * Rate (units/ns) for @p thread on @p cpu at current occupancy,
     * given the package-wide terms: clock (currentClockGhz()) and
     * LLC throughput factor (1.0 without an LLC model).
     */
    double rateFor(const SimThread &thread, CpuId cpu, double clock,
                   double llcFactor) const;

    /** Aggregate LLC footprint of processes with running threads. */
    double runningFootprintMiB() const;

    /**
     * Recompute every running thread's rate and move its completion
     * event in place (EventQueue::reschedule). Called after any
     * occupancy change, i.e. on every context switch. The clock and
     * LLC terms depend only on occupancy, so they are computed once
     * per call rather than once per running CPU; the per-CPU
     * expression order is unchanged, so every rate is bitwise the
     * same as computing them per CPU.
     */
    void refreshRates();

    /** Pull ready threads onto idle CPUs while both exist. */
    void tryDispatch();

    /** Idle active CPU to use next, or -1. Prefers idle cores. */
    int pickIdleCpu() const;

    /** Put @p thread on @p cpu, emitting a CSwitch. */
    void dispatch(CpuId cpu, SimThread &thread);

    /**
     * Remove the running thread from @p cpu (it blocked, exited, or
     * was preempted), emit the CSwitch to the next thread or idle.
     */
    void vacate(CpuId cpu);

    /** Queue @p thread by priority class (FIFO within a class). */
    void pushReady(SimThread *thread);

    /** Pop the highest-priority ready thread (nullptr if none). */
    SimThread *popReady();

    void onComputeComplete(CpuId cpu);
    void onQuantumExpired(CpuId cpu);

    /** Force the running thread off @p cpu in favor of popReady(). */
    void preempt(CpuId cpu);

    void emitCSwitch(CpuId cpu, SimThread *oldThread,
                     SimThread *newThread);

    CpuTopology topology_;
    SimDuration quantum_;
    EventQueue &queue_;
    trace::TraceSession &session_;
    std::vector<CpuState> cpus_;
    unsigned activeCpuCount_ = 0;
    unsigned activeCpuSpan_ = 0;
    /** One FIFO per ThreadPriority class, indexed by its value. */
    std::array<std::deque<SimThread *>, 3> ready_;
    const LlcModel *llcModel_ = nullptr;
    SchedulerStats stats_;
};

} // namespace deskpar::sim

#endif // DESKPAR_SIM_SCHEDULER_HH

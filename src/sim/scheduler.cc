#include "sim/scheduler.hh"

#include <algorithm>
#include <cmath>

#include "sim/logging.hh"
#include "sim/process.hh"

namespace deskpar::sim {

double
SchedulerStats::contentionStallFraction() const
{
    if (busyTime == 0)
        return 0.0;
    // Baseline intra-core stall fraction when running alone, plus the
    // throughput lost to sibling contention expressed as stall time.
    constexpr double kBaseStall = 0.053;
    double shared = static_cast<double>(smtSharedTime);
    double busy = static_cast<double>(busyTime);
    return kBaseStall + 0.057 * (shared / busy);
}

OsScheduler::OsScheduler(const CpuTopology &topology,
                         std::vector<bool> active_mask,
                         SimDuration quantum, EventQueue &queue,
                         trace::TraceSession &session)
    : topology_(topology), quantum_(quantum), queue_(queue),
      session_(session)
{
    unsigned n = topology_.numLogicalCpus();
    if (active_mask.size() != n)
        fatal("OsScheduler: active mask size != logical CPU count");
    if (quantum_ == 0)
        fatal("OsScheduler: zero quantum");

    cpus_.resize(n);
    for (unsigned i = 0; i < n; ++i) {
        cpus_[i].active = active_mask[i];
        if (active_mask[i]) {
            ++activeCpuCount_;
            activeCpuSpan_ = i + 1;
        }
    }
    if (activeCpuCount_ == 0)
        fatal("OsScheduler: no active CPUs");
}

unsigned
OsScheduler::busyPhysicalCores() const
{
    unsigned count = 0;
    unsigned threads_per_core = topology_.spec().threadsPerCore;
    for (unsigned core = 0; core < topology_.spec().physicalCores;
         ++core) {
        for (unsigned t = 0; t < threads_per_core; ++t) {
            if (cpus_[core * threads_per_core + t].running) {
                ++count;
                break;
            }
        }
    }
    return count;
}

bool
OsScheduler::siblingBusy(CpuId cpu) const
{
    CpuId sib = topology_.siblingOf(cpu);
    return sib != cpu && cpus_[sib].running != nullptr;
}

double
OsScheduler::currentClockGhz() const
{
    return topology_.spec().clockGhz(busyPhysicalCores());
}

double
OsScheduler::runningFootprintMiB() const
{
    double total = 0.0;
    const SimProcess *last = nullptr;
    for (const CpuState &state : cpus_) {
        if (!state.running)
            continue;
        const SimProcess &process = state.running->process();
        // Threads of one process share its working set; count the
        // process once. Running threads of the same process cluster
        // in practice, so a last-seen check removes most duplicates
        // cheaply and the full scan handles the rest.
        if (&process == last)
            continue;
        bool counted = false;
        for (const CpuState &prior : cpus_) {
            if (&prior == &state)
                break;
            if (prior.running &&
                &prior.running->process() == &process) {
                counted = true;
                break;
            }
        }
        if (!counted)
            total += process.llcFootprintMiB();
        last = &process;
    }
    return total;
}

double
OsScheduler::rateFor(const SimThread &thread, CpuId cpu, double clock,
                     double llcFactor) const
{
    // Work units are cycles, so units/ns == GHz numerically.
    double factor = 1.0;
    if (siblingBusy(cpu)) {
        const SimThread *sibling =
            cpus_[topology_.siblingOf(cpu)].running;
        // Contention factor uses the friendliness of the co-runners;
        // take the mean of the two processes' friendliness values.
        double f = 0.5 * (thread.process().smtFriendliness() +
                          sibling->process().smtFriendliness());
        factor = 0.5 + 0.5 * f;
    }
    factor *= llcFactor; // exactly 1.0 without an LLC model
    return clock * factor;
}

void
OsScheduler::accrueAll()
{
    for (CpuId cpu = 0; cpu < cpus_.size(); ++cpu)
        accrue(cpu);
}

void
OsScheduler::accrue(CpuId cpu)
{
    CpuState &state = cpus_[cpu];
    if (!state.running)
        return;
    SimTime now = queue_.now();
    if (now <= state.lastAccrue)
        return;
    SimDuration elapsed = now - state.lastAccrue;
    WorkUnits done = static_cast<double>(elapsed) * state.rate;
    done = std::min(done, state.running->remainingWork());
    state.running->consumeWork(done);
    state.lastAccrue = now;

    stats_.busyTime += elapsed;
    if (siblingBusy(cpu)) {
        stats_.smtSharedTime += elapsed;
        stats_.workShared += done;
    } else {
        stats_.workAlone += done;
    }
}

void
OsScheduler::refreshRates()
{
    SimTime now = queue_.now();
    // Occupancy is fixed for the whole loop (accrue only deducts
    // work), so the package-wide rate terms are computed once.
    double clock = currentClockGhz();
    double llcFactor =
        llcModel_ ? llcModel_->throughputFactor(runningFootprintMiB())
                  : 1.0;
    for (CpuId cpu = 0; cpu < cpus_.size(); ++cpu) {
        CpuState &state = cpus_[cpu];
        if (!state.running)
            continue;
        accrue(cpu);
        state.rate = rateFor(*state.running, cpu, clock, llcFactor);
        WorkUnits remaining = state.running->remainingWork();
        auto delay = static_cast<SimDuration>(
            std::ceil(remaining / state.rate));
        if (delay == 0)
            delay = 1;
        queue_.reschedule(state.completionEvent, now + delay,
                          [this, cpu] { onComputeComplete(cpu); });
    }
}

int
OsScheduler::pickIdleCpu() const
{
    int shared_candidate = -1;
    for (CpuId cpu = 0; cpu < cpus_.size(); ++cpu) {
        const CpuState &state = cpus_[cpu];
        if (!state.active || state.running)
            continue;
        if (!siblingBusy(cpu))
            return static_cast<int>(cpu);
        if (shared_candidate < 0)
            shared_candidate = static_cast<int>(cpu);
    }
    return shared_candidate;
}

std::size_t
OsScheduler::readyCount() const
{
    return ready_[0].size() + ready_[1].size() + ready_[2].size();
}

void
OsScheduler::pushReady(SimThread *thread)
{
    ready_[static_cast<unsigned>(thread->priority())].push_back(
        thread);
}

SimThread *
OsScheduler::popReady()
{
    for (unsigned p = 3; p-- > 0;) {
        if (!ready_[p].empty()) {
            SimThread *thread = ready_[p].front();
            ready_[p].pop_front();
            return thread;
        }
    }
    return nullptr;
}

void
OsScheduler::makeReady(SimThread &thread)
{
    if (thread.state() == ThreadState::Running)
        panic("OsScheduler::makeReady: thread already running");
    thread.setState(ThreadState::Ready);
    thread.setReadyTime(queue_.now());
    pushReady(&thread);
    tryDispatch();

    // Priority preemption: an Elevated thread that found no idle CPU
    // evicts the lowest-priority running thread (Windows-style boost
    // for interactive work).
    if (thread.state() == ThreadState::Ready &&
        thread.priority() == ThreadPriority::Elevated) {
        int victim_cpu = -1;
        ThreadPriority victim_prio = ThreadPriority::Elevated;
        for (CpuId cpu = 0; cpu < cpus_.size(); ++cpu) {
            SimThread *running = cpus_[cpu].running;
            if (running && running->priority() < victim_prio) {
                victim_prio = running->priority();
                victim_cpu = static_cast<int>(cpu);
            }
        }
        if (victim_cpu >= 0)
            preempt(static_cast<CpuId>(victim_cpu));
    }
}

void
OsScheduler::tryDispatch()
{
    while (readyCount() > 0) {
        int cpu = pickIdleCpu();
        if (cpu < 0)
            return;
        SimThread *thread = popReady();
        dispatch(static_cast<CpuId>(cpu), *thread);
    }
}

void
OsScheduler::dispatch(CpuId cpu, SimThread &thread)
{
    CpuState &state = cpus_[cpu];
    if (state.running)
        panic("OsScheduler::dispatch: CPU busy");

    // Attribute past busy time under the old occupancy before the
    // sibling-busy picture changes.
    accrueAll();

    emitCSwitch(cpu, nullptr, &thread);

    state.running = &thread;
    state.lastAccrue = queue_.now();
    thread.setState(ThreadState::Running);

    state.quantumEvent = queue_.scheduleAfter(
        quantum_, [this, cpu] { onQuantumExpired(cpu); });

    refreshRates();
}

void
OsScheduler::vacate(CpuId cpu)
{
    CpuState &state = cpus_[cpu];
    if (!state.running)
        panic("OsScheduler::vacate: CPU idle");

    accrueAll();

    SimThread *old_thread = state.running;
    state.running = nullptr;
    queue_.cancel(state.completionEvent);
    queue_.cancel(state.quantumEvent);

    if (SimThread *next = popReady()) {
        emitCSwitch(cpu, old_thread, next);
        state.running = next;
        state.lastAccrue = queue_.now();
        next->setState(ThreadState::Running);
        state.quantumEvent = queue_.scheduleAfter(
            quantum_, [this, cpu] { onQuantumExpired(cpu); });
    } else {
        emitCSwitch(cpu, old_thread, nullptr);
    }
    refreshRates();
}

void
OsScheduler::onComputeComplete(CpuId cpu)
{
    CpuState &state = cpus_[cpu];
    if (!state.running)
        panic("OsScheduler::onComputeComplete: CPU idle");

    accrue(cpu);
    SimThread *thread = state.running;
    if (thread->remainingWork() > 0.0) {
        // Rounding left a sliver; let refreshRates reschedule it.
        refreshRates();
        return;
    }

    if (thread->continueOnCpu()) {
        // Thread produced another Compute action; keep it on the CPU
        // with no context switch.
        refreshRates();
    } else {
        vacate(cpu);
    }
}

void
OsScheduler::onQuantumExpired(CpuId cpu)
{
    CpuState &state = cpus_[cpu];
    if (!state.running)
        panic("OsScheduler::onQuantumExpired: CPU idle");

    if (readyCount() == 0) {
        // Nothing else wants to run; extend the quantum.
        state.quantumEvent = queue_.scheduleAfter(
            quantum_, [this, cpu] { onQuantumExpired(cpu); });
        return;
    }
    preempt(cpu);
}

void
OsScheduler::preempt(CpuId cpu)
{
    CpuState &state = cpus_[cpu];
    if (!state.running)
        panic("OsScheduler::preempt: CPU idle");

    accrueAll();
    SimThread *thread = state.running;

    // Requeue the preempted thread behind current waiters of its
    // class and hand the CPU to the best ready thread.
    state.running = nullptr;
    queue_.cancel(state.completionEvent);
    queue_.cancel(state.quantumEvent);
    thread->setState(ThreadState::Ready);
    thread->setReadyTime(queue_.now());
    pushReady(thread);

    SimThread *next = popReady();
    emitCSwitch(cpu, thread, next);
    state.running = next;
    state.lastAccrue = queue_.now();
    next->setState(ThreadState::Running);
    state.quantumEvent = queue_.scheduleAfter(
        quantum_, [this, cpu] { onQuantumExpired(cpu); });

    refreshRates();
}

void
OsScheduler::emitCSwitch(CpuId cpu, SimThread *oldThread,
                         SimThread *newThread)
{
    trace::CSwitchEvent event;
    event.timestamp = queue_.now();
    event.cpu = cpu;
    if (oldThread) {
        event.oldPid = oldThread->pid();
        event.oldTid = oldThread->tid();
    }
    if (newThread) {
        event.newPid = newThread->pid();
        event.newTid = newThread->tid();
        event.readyTime = newThread->readyTime();
    }
    session_.recordCSwitch(event);
    ++stats_.contextSwitches;
}

} // namespace deskpar::sim

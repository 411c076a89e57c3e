/**
 * @file
 * The pre-rewrite event queue, preserved as a reference model.
 *
 * This is the std::priority_queue (binary heap) + std::function
 * implementation that EventQueue shipped with before the 4-ary
 * implicit-heap rewrite, kept verbatim in the legacy namespace for
 * two consumers:
 *
 *  - tests/sim/event_queue_diff_test.cc drives both queues with the
 *    same randomized schedule/cancel/run script and asserts identical
 *    pop order (equal-timestamp FIFO ties included), identical handle
 *    liveness after cancellation, and identical runUntil/runOne
 *    observable behavior;
 *  - bench/bench_micro_sim_events.cc measures simulated-events/sec
 *    A/B against it, which is what the >=2x tentpole floor is
 *    relative to.
 *
 * It has no reschedule(): the differential test drives it with the
 * cancel + schedule pair that EventQueue::reschedule must match.
 * It lives under tests/, not src/, because no production path uses
 * it. Semantics are documented on EventQueue (sim/event_queue.hh);
 * the two must stay observably identical. Do not optimize this
 * class.
 */

#ifndef DESKPAR_TESTS_REFERENCE_EVENT_QUEUE_LEGACY_HH
#define DESKPAR_TESTS_REFERENCE_EVENT_QUEUE_LEGACY_HH

#include <cstdint>
#include <functional>
#include <queue>
#include <utility>
#include <vector>

#include "sim/logging.hh"
#include "sim/types.hh"

namespace deskpar::sim::legacy {

/**
 * Binary-heap event queue: the pre-rewrite EventQueue.
 */
class EventQueue
{
  public:
    using Callback = std::function<void()>;

    class Handle
    {
      public:
        Handle() = default;

        bool
        pending() const
        {
            return queue_ && queue_->live(index_, gen_);
        }

      private:
        friend class EventQueue;

        Handle(const EventQueue *queue, std::uint32_t index,
               std::uint32_t gen)
            : queue_(queue), index_(index), gen_(gen)
        {}

        const EventQueue *queue_ = nullptr;
        std::uint32_t index_ = 0;
        std::uint32_t gen_ = 0;
    };

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    SimTime now() const { return now_; }

    Handle
    schedule(SimTime when, Callback cb)
    {
        if (when < now_)
            panic("EventQueue::schedule: event in the past");
        if (!cb)
            panic("EventQueue::schedule: empty callback");

        std::uint32_t index = acquireNode();
        Node &node = pool_[index];
        node.callback = std::move(cb);

        Entry entry;
        entry.when = when;
        entry.seq = nextSeq_++;
        entry.index = index;
        entry.gen = node.gen;
        heap_.push(entry);
        ++liveCount_;
        return Handle(this, index, node.gen);
    }

    Handle
    scheduleAfter(SimDuration delay, Callback cb)
    {
        return schedule(now_ + delay, std::move(cb));
    }

    void
    cancel(Handle &handle)
    {
        if (handle.queue_ == this &&
            live(handle.index_, handle.gen_)) {
            releaseNode(handle.index_);
            --liveCount_;
        }
        handle = Handle();
    }

    bool
    runOne()
    {
        if (!peekLive())
            return false;
        fireTop();
        return true;
    }

    void
    runUntil(SimTime until)
    {
        while (const Entry *top = peekLive()) {
            if (top->when > until)
                break;
            fireTop();
        }
        if (now_ < until)
            now_ = until;
    }

    void
    runAll()
    {
        while (runOne()) {
        }
    }

    std::size_t pendingCount() const { return liveCount_; }

    bool empty() const { return liveCount_ == 0; }

  private:
    struct Node
    {
        std::uint32_t gen = 0;
        std::uint32_t nextFree = 0;
        Callback callback;
    };

    struct Entry
    {
        SimTime when = 0;
        std::uint64_t seq = 0;
        std::uint32_t index = 0;
        std::uint32_t gen = 0;
    };

    struct Later
    {
        bool
        operator()(const Entry &a, const Entry &b) const
        {
            if (a.when != b.when)
                return a.when > b.when;
            return a.seq > b.seq;
        }
    };

    bool
    live(std::uint32_t index, std::uint32_t gen) const
    {
        return index < pool_.size() && pool_[index].gen == gen;
    }

    std::uint32_t
    acquireNode()
    {
        if (freeHead_ != kNoFree) {
            std::uint32_t index = freeHead_;
            freeHead_ = pool_[index].nextFree;
            return index;
        }
        pool_.emplace_back();
        return static_cast<std::uint32_t>(pool_.size() - 1);
    }

    void
    releaseNode(std::uint32_t index)
    {
        Node &node = pool_[index];
        ++node.gen;
        node.callback = nullptr;
        node.nextFree = freeHead_;
        freeHead_ = index;
    }

    const Entry *
    peekLive()
    {
        while (!heap_.empty()) {
            const Entry &top = heap_.top();
            if (live(top.index, top.gen))
                return &top;
            heap_.pop();
        }
        return nullptr;
    }

    void
    fireTop()
    {
        Entry entry = heap_.top();
        heap_.pop();
        now_ = entry.when;
        // Release before running: the callback may reschedule
        // (reusing this node) and the handle must already read as
        // not pending.
        Callback cb = std::move(pool_[entry.index].callback);
        releaseNode(entry.index);
        --liveCount_;
        cb();
    }

    SimTime now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::size_t liveCount_ = 0;
    std::vector<Node> pool_;
    std::uint32_t freeHead_ = kNoFree;
    std::priority_queue<Entry, std::vector<Entry>, Later> heap_;

    static constexpr std::uint32_t kNoFree = 0xffffffffu;
};

} // namespace deskpar::sim::legacy

#endif // DESKPAR_TESTS_REFERENCE_EVENT_QUEUE_LEGACY_HH

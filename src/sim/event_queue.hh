/**
 * @file
 * Discrete-event queue: the heart of the simulation substrate.
 *
 * Components schedule callbacks at future simulated times; the queue
 * executes them in time order (FIFO among equal timestamps). Scheduled
 * events can be cancelled or moved through their Handle. Both are
 * eager: the heap holds exactly the pending events, never a dead
 * entry, so a cancel-heavy workload (the scheduler moves every
 * running CPU's completion on each context switch) costs no extra
 * pops.
 *
 * Nodes live in a freelist-backed pool owned by the queue; a Handle
 * is a packed (sequence, node-index) ticket, so scheduling an event
 * allocates nothing once the pool is warm. A recycled node gets the
 * next scheduling's fresh sequence number, which invalidates stale
 * handles without any per-event heap allocation.
 *
 * The priority queue is a hand-rolled indexed 4-ary implicit heap
 * tuned for the pop path, which dominates simulation cost at
 * realistic heap depths (hundreds to thousands of pending events):
 *
 *  - entries are 16 bytes — the timestamp plus one packed word
 *    carrying (sequence << 20 | node index), which is simultaneously
 *    the FIFO tie-break and the liveness ticket — so a node's four
 *    children are exactly one cache line;
 *  - the entry array is offset inside a 64-byte-aligned buffer so
 *    every child group starts on a line boundary (children of i at
 *    4i+1; element 1 is 64-byte-aligned);
 *  - a dense node -> heap-position array, kept current on every sift
 *    move, lets cancel() and reschedule() find an event's entry in
 *    O(1) and repair the heap around it in place;
 *  - sift-down walks half the levels of a binary heap and picks the
 *    earliest of four children with branchless conditional moves,
 *    where std::priority_queue's per-level two-way branch
 *    mispredicts ~50% on random keys;
 *  - pop uses the bottom-up trick (descend the min-child path to a
 *    leaf, then bubble the displaced back element up), which saves
 *    the per-level compare against the moving element.
 *
 * Pop order is differential-tested against the preserved
 * binary-heap implementation (tests/reference/event_queue_legacy.hh).
 * Callbacks are InlineCallback, not std::function, so capture-heavy
 * events (input delivery captures a label string) schedule without
 * touching malloc.
 */

#ifndef DESKPAR_SIM_EVENT_QUEUE_HH
#define DESKPAR_SIM_EVENT_QUEUE_HH

#include <cstddef>
#include <cstdint>
#include <new>
#include <vector>

#include "sim/callback.hh"
#include "sim/types.hh"

namespace deskpar::sim {

/**
 * Time-ordered event queue with cancellable events.
 */
class EventQueue
{
  public:
    using Callback = InlineCallback;

    /**
     * Event counts since construction. Plain fields bumped on the
     * hot path; publish them once per run, not per event. Every
     * scheduled event ends fired, cancelled or still pending, so
     * scheduled == fired + cancelled + pendingCount() always holds;
     * a reschedule() of a pending event counts as rescheduled only.
     */
    struct Stats
    {
        std::uint64_t scheduled = 0;
        std::uint64_t rescheduled = 0;
        std::uint64_t cancelled = 0;
        std::uint64_t fired = 0;
        /** High-water mark of the heap's size (= pending events). */
        std::uint64_t peakHeap = 0;
    };

    /**
     * Opaque reference to a scheduled event; valid until the event
     * fires or is cancelled. Default-constructed handles are inert.
     * A Handle must not outlive the queue that issued it.
     */
    class Handle
    {
      public:
        Handle() = default;

        /** True if this handle refers to a still-pending event. */
        bool
        pending() const
        {
            return queue_ && queue_->live(ticket_);
        }

      private:
        friend class EventQueue;

        Handle(const EventQueue *queue, std::uint64_t ticket)
            : queue_(queue), ticket_(ticket)
        {}

        const EventQueue *queue_ = nullptr;
        std::uint64_t ticket_ = 0;
    };

    EventQueue() = default;

    EventQueue(const EventQueue &) = delete;
    EventQueue &operator=(const EventQueue &) = delete;

    /** Current simulated time. */
    SimTime now() const { return now_; }

    /**
     * Schedule @p cb to run at absolute time @p when.
     * @p when must not be in the past.
     */
    Handle schedule(SimTime when, Callback cb);

    /** Schedule @p cb to run @p delay ticks from now. */
    Handle
    scheduleAfter(SimDuration delay, Callback cb)
    {
        return schedule(now_ + delay, std::move(cb));
    }

    /** Cancel a pending event; no-op if already fired or cancelled. */
    void cancel(Handle &handle);

    /**
     * Move the event behind @p handle to @p when with callback @p cb,
     * updating @p handle. Observably identical to cancel() followed
     * by schedule() — the event takes a fresh sequence number, so it
     * runs after every event already scheduled for @p when — but a
     * pending event keeps its node and its heap entry is repaired in
     * place. A fired, cancelled or default handle is just schedule().
     */
    void reschedule(Handle &handle, SimTime when, Callback cb);

    /**
     * Pop and execute the earliest pending event.
     * @return false if the queue held no live events.
     */
    bool runOne();

    /**
     * Run events until the queue drains or simulated time would exceed
     * @p until. Events at exactly @p until still run. Afterwards, now()
     * is advanced to @p until even if the queue drained early.
     */
    void runUntil(SimTime until);

    /** Run until the queue is empty. */
    void runAll();

    /** Number of pending events (the heap holds no others). */
    std::size_t pendingCount() const { return heap_.size(); }

    /** True if no events remain. */
    bool empty() const { return heap_.empty(); }

    /** Event counts since construction. */
    const Stats &stats() const { return stats_; }

    /**
     * Pre-size the node pool and heap for @p events concurrent
     * events, so even the first moments of a run schedule without
     * growing either.
     */
    void reserve(std::size_t events);

  private:
    /** Low bits of a ticket: the node index (max ~1M concurrent). */
    static constexpr unsigned kIndexBits = 20;
    static constexpr std::uint64_t kIndexMask =
        (std::uint64_t{1} << kIndexBits) - 1;
    /**
     * Top bit of a tickets_ word: the node is free, and the word's
     * low bits are the next freelist index (kIndexMask = none).
     * Live tickets never set the bit — schedule() panics before the
     * sequence counter could reach it.
     */
    static constexpr std::uint64_t kFreeBit = std::uint64_t{1}
                                              << 63;
    static constexpr std::uint32_t kNoFree =
        static_cast<std::uint32_t>(kIndexMask);

    /**
     * Pooled event storage, addressed by the ticket's index bits.
     * Exactly one cache line: the node's current ticket, its
     * freelist link and its heap position live in dense side arrays,
     * so liveness probes (every cancel, every Handle::pending),
     * freelist walks and sift moves stay cache-resident, and firing
     * an event touches a single line-aligned node.
     */
    struct alignas(64) Node
    {
        Callback callback;
    };
    static_assert(sizeof(Node) == 64, "node layout drifted");

    /**
     * Heap entry: 16 bytes. The packed ticket is
     * (sequence << kIndexBits) | node index; sequences are unique
     * and monotone, so comparing tickets compares sequences — the
     * FIFO tie-break among equal timestamps — and the same word
     * names the pool node, whose position the sifts keep current.
     */
    struct Entry
    {
        SimTime when;
        std::uint64_t ticket;
    };

    /**
     * Heap order: earlier time first, FIFO among equal times
     * (tickets carry the sequence in their high bits). Compiled as
     * one 128-bit unsigned compare — cmp/sbb, no data-dependent
     * branch: with random keys a two-field short-circuit compare
     * mispredicts ~50% per heap level, which was the single largest
     * cost of the sift loops.
     */
    static bool
    earlier(const Entry &a, const Entry &b)
    {
#ifdef __SIZEOF_INT128__
        unsigned __int128 ka =
            (static_cast<unsigned __int128>(a.when) << 64) |
            a.ticket;
        unsigned __int128 kb =
            (static_cast<unsigned __int128>(b.when) << 64) |
            b.ticket;
        return ka < kb;
#else
        return a.when != b.when ? a.when < b.when
                                : a.ticket < b.ticket;
#endif
    }

    /**
     * Flat entry array inside a 64-byte-aligned allocation, offset
     * so element 1 — the first child group — starts a cache line:
     * &data()[4i+1] is then line-aligned for every i. Entries are
     * trivially copyable, so growth is a memcpy.
     */
    class EntryHeap
    {
      public:
        EntryHeap() = default;
        EntryHeap(const EntryHeap &) = delete;
        EntryHeap &operator=(const EntryHeap &) = delete;
        ~EntryHeap()
        {
            ::operator delete(raw_, std::align_val_t{64});
        }

        Entry *data() { return data_; }
        const Entry *data() const { return data_; }
        std::size_t size() const { return size_; }
        bool empty() const { return size_ == 0; }
        const Entry &front() const { return data_[0]; }
        const Entry &back() const { return data_[size_ - 1]; }

        /** Append one uninitialized slot (the sift fills it). */
        void
        extend()
        {
            if (size_ == capacity_)
                grow(size_ + 1);
            ++size_;
        }

        void pop_back() { --size_; }

        void
        reserve(std::size_t capacity)
        {
            if (capacity > capacity_)
                grow(capacity);
        }

      private:
        void grow(std::size_t atLeast);

        Entry *data_ = nullptr;
        std::size_t size_ = 0;
        std::size_t capacity_ = 0;
        void *raw_ = nullptr;
    };

    /** True if @p ticket names a scheduled, uncancelled event. */
    bool
    live(std::uint64_t ticket) const
    {
        std::size_t index =
            static_cast<std::size_t>(ticket & kIndexMask);
        return index < tickets_.size() &&
               tickets_[index] == ticket;
    }

    /** Take a node from the freelist (growing the pool if dry). */
    std::uint32_t acquireNode();

    /** Return a node to the freelist, invalidating its ticket. */
    void releaseNode(std::uint32_t index);

    /** Panic unless (@p when, @p cb) may be scheduled now. */
    void checkSchedule(SimTime when, const Callback &cb) const;

    /** Give node @p index a fresh ticket and callback @p cb. */
    std::uint64_t arm(std::uint32_t index, Callback &&cb);

    /** @{ 4-ary implicit heap: children of i at 4i+1..4i+4. */
    /** Store @p entry at @p pos and record the position. */
    void
    place(std::size_t pos, const Entry &entry)
    {
        heap_.data()[pos] = entry;
        positions_[entry.ticket & kIndexMask] =
            static_cast<std::uint32_t>(pos);
    }
    static std::size_t minChild(const Entry *data, std::size_t first,
                                std::size_t size);
    void siftUp(std::size_t pos, Entry moving);
    void siftDownFrom(std::size_t pos, Entry moving);
    void popRoot();
    /** Re-place @p moving at hole @p pos, up or down as needed. */
    void repair(std::size_t pos, Entry moving);
    /** @} */

    /** Pop the top entry and execute its callback. */
    void fireTop();

    SimTime now_ = 0;
    std::uint64_t nextSeq_ = 0;
    std::vector<Node> pool_;
    /** pool_[i]'s current ticket, or kFreeBit|next while free. */
    std::vector<std::uint64_t> tickets_;
    /** Heap position of pool_[i]'s entry while it is pending. */
    std::vector<std::uint32_t> positions_;
    std::uint32_t freeHead_ = kNoFree;
    EntryHeap heap_;
    Stats stats_;
};

} // namespace deskpar::sim

#endif // DESKPAR_SIM_EVENT_QUEUE_HH

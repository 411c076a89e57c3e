#include "sim/event_queue.hh"

#include <cstring>
#include <utility>

#include "sim/logging.hh"

namespace deskpar::sim {

void
EventQueue::EntryHeap::grow(std::size_t atLeast)
{
    std::size_t capacity = capacity_ ? capacity_ * 2 : 256;
    if (capacity < atLeast)
        capacity = atLeast;
    // Three leading pad entries put element 1 (the first child
    // group) on a cache-line boundary: data_ = raw + 48 bytes, so
    // &data_[1] is 64-byte-aligned and every group 4i+1..4i+4 of
    // 16-byte entries spans exactly one line.
    static_assert(sizeof(Entry) == 16, "entry layout drifted");
    void *raw = ::operator new((capacity + 3) * sizeof(Entry),
                               std::align_val_t{64});
    Entry *data = static_cast<Entry *>(raw) + 3;
    if (size_)
        std::memcpy(data, data_, size_ * sizeof(Entry));
    ::operator delete(raw_, std::align_val_t{64});
    raw_ = raw;
    data_ = data;
    capacity_ = capacity;
}

std::uint32_t
EventQueue::acquireNode()
{
    if (freeHead_ != kNoFree) {
        std::uint32_t index = freeHead_;
        freeHead_ = static_cast<std::uint32_t>(tickets_[index] &
                                               kIndexMask);
        return index;
    }
    if (pool_.size() + 1 > kIndexMask)
        panic("EventQueue: node pool exceeds ticket index space");
    pool_.emplace_back();
    tickets_.push_back(kFreeBit | kNoFree);
    positions_.push_back(0);
    return static_cast<std::uint32_t>(pool_.size() - 1);
}

void
EventQueue::releaseNode(std::uint32_t index)
{
    pool_[index].callback = nullptr;
    tickets_[index] = kFreeBit | freeHead_;
    freeHead_ = index;
}

inline void
EventQueue::checkSchedule(SimTime when, const Callback &cb) const
{
    if (when < now_)
        panic("EventQueue::schedule: event in the past");
    if (!cb)
        panic("EventQueue::schedule: empty callback");
    // 63, not 64: live tickets must stay below kFreeBit.
    if (nextSeq_ >> (63 - kIndexBits))
        panic("EventQueue::schedule: sequence space exhausted");
}

inline std::uint64_t
EventQueue::arm(std::uint32_t index, Callback &&cb)
{
    std::uint64_t ticket = (nextSeq_++ << kIndexBits) | index;
    tickets_[index] = ticket;
    pool_[index].callback = std::move(cb);
    return ticket;
}

void
EventQueue::siftUp(std::size_t pos, Entry moving)
{
    Entry *data = heap_.data();
    while (pos > 0) {
        std::size_t parent = (pos - 1) / 4;
        if (!earlier(moving, data[parent]))
            break;
        place(pos, data[parent]);
        pos = parent;
    }
    place(pos, moving);
}

/**
 * Earliest of the children starting at @p first (first < size). A
 * full group is one cache line and its minimum is two rounds of
 * conditional moves, not a data-dependent branch; the partial
 * trailing group occurs at most once per descent.
 */
inline std::size_t
EventQueue::minChild(const Entry *data, std::size_t first,
                     std::size_t size)
{
    if (first + 3 < size) {
        std::size_t a =
            first + (earlier(data[first + 1], data[first]) ? 1 : 0);
        std::size_t b =
            first + 2 +
            (earlier(data[first + 3], data[first + 2]) ? 1 : 0);
        // Arithmetic select, not a ternary: with the result feeding
        // both the move and the next level, GCC compiles `? b : a`
        // to a branch, which mispredicts half the time on random
        // keys.
        std::size_t takeB =
            std::size_t{0} - (earlier(data[b], data[a]) ? 1 : 0);
        return a ^ ((a ^ b) & takeB);
    }
    std::size_t best = first;
    for (std::size_t child = first + 1; child < size; ++child) {
        if (earlier(data[child], data[best]))
            best = child;
    }
    return best;
}

/**
 * Top-down sift from hole @p pos: move the earliest child up while
 * it precedes @p moving. Used where the moving element is a
 * rescheduled or displaced entry that rarely travels far, so the
 * early exit beats the bottom-up descent that popRoot() uses.
 */
void
EventQueue::siftDownFrom(std::size_t pos, Entry moving)
{
    const Entry *data = heap_.data();
    const std::size_t size = heap_.size();
    for (;;) {
        std::size_t first = pos * 4 + 1;
        if (first >= size)
            break;
        std::size_t best = minChild(data, first, size);
        if (!earlier(data[best], moving))
            break;
        place(pos, data[best]);
        pos = best;
    }
    place(pos, moving);
}

/**
 * Remove the root and re-place the displaced back element,
 * bottom-up: walk the min-child path all the way to a leaf moving
 * children up, then bubble the element up from the leaf hole. The
 * element came from the bottom of the heap, so it nearly always
 * belongs near a leaf — descending first saves the per-level "is it
 * earlier than the moving element?" compare a top-down sift pays.
 */
void
EventQueue::popRoot()
{
    Entry displaced = heap_.back();
    heap_.pop_back();
    const Entry *data = heap_.data();
    const std::size_t size = heap_.size();
    if (size == 0)
        return;
    std::size_t pos = 0;
    for (;;) {
        std::size_t first = pos * 4 + 1;
        if (first >= size)
            break;
        // The next level's candidates — the children of all four
        // children — are 16 contiguous entries (4 lines);
        // prefetching them hides the load latency the
        // data-dependent descent can't otherwise overlap.
        std::size_t grand = first * 4 + 1;
        if (grand < size) {
            __builtin_prefetch(data + grand);
            __builtin_prefetch(data + grand + 4);
            __builtin_prefetch(data + grand + 8);
            __builtin_prefetch(data + grand + 12);
        }
        std::size_t best = minChild(data, first, size);
        place(pos, data[best]);
        pos = best;
    }
    siftUp(pos, displaced);
}

void
EventQueue::repair(std::size_t pos, Entry moving)
{
    if (pos > 0 && earlier(moving, heap_.data()[(pos - 1) / 4]))
        siftUp(pos, moving);
    else
        siftDownFrom(pos, moving);
}

EventQueue::Handle
EventQueue::schedule(SimTime when, Callback cb)
{
    checkSchedule(when, cb);
    std::uint64_t ticket = arm(acquireNode(), std::move(cb));
    heap_.extend();
    siftUp(heap_.size() - 1, Entry{when, ticket});
    ++stats_.scheduled;
    if (heap_.size() > stats_.peakHeap)
        stats_.peakHeap = heap_.size();
    return Handle(this, ticket);
}

void
EventQueue::reschedule(Handle &handle, SimTime when, Callback cb)
{
    if (handle.queue_ != this || !live(handle.ticket_)) {
        handle = schedule(when, std::move(cb));
        return;
    }
    checkSchedule(when, cb);
    auto index =
        static_cast<std::uint32_t>(handle.ticket_ & kIndexMask);
    // The fresh ticket is exactly the one cancel + schedule would
    // have issued: the freed node would be the freelist head that
    // schedule() takes back, and the sequence number is the next.
    handle.ticket_ = arm(index, std::move(cb));
    repair(positions_[index], Entry{when, handle.ticket_});
    ++stats_.rescheduled;
}

void
EventQueue::cancel(Handle &handle)
{
    if (handle.queue_ == this && live(handle.ticket_)) {
        auto index =
            static_cast<std::uint32_t>(handle.ticket_ & kIndexMask);
        std::size_t pos = positions_[index];
        Entry displaced = heap_.back();
        heap_.pop_back();
        if (pos < heap_.size())
            repair(pos, displaced);
        releaseNode(index);
        ++stats_.cancelled;
    }
    handle = Handle();
}

void
EventQueue::fireTop()
{
    Entry entry = heap_.front();
    auto index = static_cast<std::uint32_t>(entry.ticket & kIndexMask);
    // The callback is read only after the sift; start the
    // (random-index) node fetch now so it overlaps the heap work.
    __builtin_prefetch(&pool_[index]);
    popRoot();
    now_ = entry.when;
    // Release before running: the callback may reschedule (reusing
    // this node) and the handle must already read as not pending.
    Callback cb = std::move(pool_[index].callback);
    releaseNode(index);
    ++stats_.fired;
    cb();
}

bool
EventQueue::runOne()
{
    if (heap_.empty())
        return false;
    fireTop();
    return true;
}

void
EventQueue::runUntil(SimTime until)
{
    while (!heap_.empty() && heap_.front().when <= until)
        fireTop();
    if (now_ < until)
        now_ = until;
}

void
EventQueue::runAll()
{
    while (runOne()) {
    }
}

void
EventQueue::reserve(std::size_t events)
{
    heap_.reserve(events);
    if (pool_.size() >= events)
        return;
    // Index kIndexMask is the freelist "none" sentinel.
    if (events >= kIndexMask)
        panic("EventQueue::reserve: beyond ticket index space");
    // Grow the pool and thread the new nodes onto the freelist.
    std::size_t first = pool_.size();
    pool_.resize(events);
    tickets_.resize(events);
    positions_.resize(events);
    for (std::size_t i = first; i < events; ++i) {
        tickets_[i] = kFreeBit | freeHead_;
        freeHead_ = static_cast<std::uint32_t>(i);
    }
}

} // namespace deskpar::sim

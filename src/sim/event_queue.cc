#include "sim/event_queue.hh"

#include <algorithm>

#include "sim/logging.hh"

namespace afa::sim {

EventQueue::EventQueue()
    : nextSeq(0), numExecuted(0), numInternal(0), numPending(0)
{
    slab.reserve(1024);
    slotKey.reserve(1024);
    freeSlots.reserve(1024);
    heap.reserve(1024);
}

std::uint32_t
EventQueue::growSlab()
{
    if (slab.size() > kSlotMask)
        panic("EventQueue: more than %llu concurrent events",
              (unsigned long long)kSlotMask);
    slab.emplace_back();
    slotKey.push_back(kStaleKey);
    // Every slot fits on the free list: freeing never allocates.
    freeSlots.reserve(slab.capacity());
    return static_cast<std::uint32_t>(slab.size() - 1);
}

EventHandle
EventQueue::scheduleSlot(Tick when, std::uint32_t prio, bool internal)
{
    if (nextSeq >= kMaxSeq)
        panicSeqExhausted();
    std::uint32_t slot = allocSlot();
    Record &rec = slab[slot];
    rec.scheduled = true;
    rec.internal = internal;
    std::uint64_t key = (nextSeq++ << kSlotBits) | slot;
    slotKey[slot] = key;
    heap.push_back(HeapEntry{when, key, prio});
    std::push_heap(heap.begin(), heap.end(), Later{});
    ++numPending;
    return EventHandle{slot, rec.gen};
}

void
EventQueue::panicNullCallback()
{
    panic("EventQueue::schedule: null callback");
}

void
EventQueue::panicSeqExhausted()
{
    panic("EventQueue: event sequence space exhausted");
}

EventQueue::HeapEntry
EventQueue::popTop()
{
    std::pop_heap(heap.begin(), heap.end(), Later{});
    HeapEntry top = heap.back();
    heap.pop_back();
    return top;
}

bool
EventQueue::cancel(EventHandle handle)
{
    if (!handle.valid() || handle.slot >= slab.size())
        return false;
    Record &rec = slab[handle.slot];
    if (!rec.scheduled || rec.gen != handle.gen)
        return false;
    // Lazy deletion: invalidate the slot key so the heap entry is
    // stale; the slot is recycled when the entry surfaces.
    rec.scheduled = false;
    rec.fn = nullptr;
    ++rec.gen;
    slotKey[handle.slot] = kStaleKey;
    freeSlots.push_back(handle.slot);
    --numPending;
    return true;
}

bool
EventQueue::reclaim(EventHandle handle, EventFn &fn_out)
{
    if (!handle.valid() || handle.slot >= slab.size())
        return false;
    Record &rec = slab[handle.slot];
    if (!rec.scheduled || rec.gen != handle.gen)
        return false;
    fn_out = std::move(rec.fn);
    rec.scheduled = false;
    rec.fn = nullptr;
    ++rec.gen;
    slotKey[handle.slot] = kStaleKey;
    freeSlots.push_back(handle.slot);
    --numPending;
    return true;
}

bool
EventQueue::pending(EventHandle handle) const
{
    if (!handle.valid() || handle.slot >= slab.size())
        return false;
    const Record &rec = slab[handle.slot];
    return rec.scheduled && rec.gen == handle.gen;
}

void
EventQueue::skimStale()
{
    while (!heap.empty() && !live(heap.front()))
        popTop();
}

Tick
EventQueue::nextTime()
{
    if (numPending == 0)
        return kMaxTick;
    skimStale();
    return heap.empty() ? kMaxTick : heap.front().when;
}

bool
EventQueue::popNext(Tick &when_out, EventFn &fn_out)
{
    while (!heap.empty()) {
        // Liveness is decided from the slot key before the sift so a
        // live record's cache line can be fetched during the pop.
        bool is_live = live(heap.front());
        if (is_live)
            prefetchRecord(heap.front());
        HeapEntry entry = popTop();
        if (!is_live)
            continue; // stale: cancelled earlier
        takeRecord(entry, when_out, fn_out);
        return true;
    }
    return false;
}

bool
EventQueue::popNextIfBefore(Tick until, Tick &when_out, EventFn &fn_out)
{
    skimStale();
    if (heap.empty() || heap.front().when > until)
        return false;
    prefetchRecord(heap.front());
    HeapEntry entry = popTop();
    takeRecord(entry, when_out, fn_out);
    return true;
}

bool
EventQueue::runNext(Tick &now_out)
{
    EventFn fn;
    if (!popNext(now_out, fn))
        return false;
    fn();
    return true;
}

void
EventQueue::clear()
{
    for (auto &entry : heap) {
        if (!live(entry))
            continue;
        std::uint32_t slot =
            static_cast<std::uint32_t>(entry.key & kSlotMask);
        Record &rec = slab[slot];
        rec.scheduled = false;
        rec.fn = nullptr;
        ++rec.gen;
        slotKey[slot] = kStaleKey;
        freeSlots.push_back(slot);
    }
    heap.clear();
    numPending = 0;
}

} // namespace afa::sim

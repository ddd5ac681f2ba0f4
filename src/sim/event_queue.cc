#include "sim/event_queue.hh"

#include <algorithm>
#include <bit>

#include "sim/logging.hh"

namespace afa::sim {

EventQueue::EventQueue()
    : occupied(0), base(0), numExecuted(0), numInternal(0),
      numPending(0)
{
    slab.reserve(1024);
    nodes.reserve(1024);
    freeSlots.reserve(1024);
    runs.reserve(8);
    heads.fill(kNil);
    tails.fill(kNil);
}

std::uint32_t
EventQueue::growSlab()
{
    if (slab.size() >= kMaxSlots)
        panic("EventQueue: more than %u concurrent events",
              kMaxSlots - 1);
    slab.emplace_back();
    nodes.emplace_back();
    // Every slot fits on the free list: freeing never allocates.
    freeSlots.reserve(slab.capacity());
    return static_cast<std::uint32_t>(slab.size() - 1);
}

void
EventQueue::panicNullCallback()
{
    panic("EventQueue::schedule: null callback");
}

unsigned
EventQueue::bucketOf(Tick when) const
{
    return static_cast<unsigned>(std::bit_width(when ^ base));
}

void
EventQueue::append(std::uint32_t &head, std::uint32_t &tail,
                   std::uint32_t slot)
{
    Node &n = nodes[slot];
    n.prev = tail;
    n.next = kNil;
    if (tail == kNil)
        head = slot;
    else
        nodes[tail].next = slot;
    tail = slot;
}

std::vector<EventQueue::Run>::iterator
EventQueue::findRun(std::uint32_t band)
{
    // Descending bands: the first run whose band is <= band.
    return std::lower_bound(
        runs.begin(), runs.end(), band,
        [](const Run &r, std::uint32_t b) { return r.band > b; });
}

void
EventQueue::linkAtBase(std::uint32_t slot)
{
    const std::uint32_t band = nodes[slot].band;
    // Appending to the lowest band's run (or opening a new lowest
    // band) is the common case; other bands pay a binary search over
    // the bands present at this tick.
    if (runs.empty() || band < runs.back().band) {
        nodes[slot].prev = nodes[slot].next = kNil;
        runs.push_back(Run{band, slot, slot});
        return;
    }
    auto it = band == runs.back().band ? runs.end() - 1 : findRun(band);
    if (it == runs.end() || it->band != band) {
        nodes[slot].prev = nodes[slot].next = kNil;
        runs.insert(it, Run{band, slot, slot});
        return;
    }
    append(it->head, it->tail, slot);
}

void
EventQueue::link(std::uint32_t slot)
{
    const unsigned b = bucketOf(nodes[slot].when);
    if (b == 0) {
        linkAtBase(slot);
        return;
    }
    occupied |= 1ull << (b - 1);
    append(heads[b], tails[b], slot);
}

void
EventQueue::splice(unsigned b, std::uint32_t first, std::uint32_t last)
{
    nodes[first].prev = tails[b];
    if (tails[b] == kNil)
        heads[b] = first;
    else
        nodes[tails[b]].next = first;
    tails[b] = last;
    occupied |= 1ull << (b - 1);
}

void
EventQueue::unlink(std::uint32_t slot)
{
    const Node &n = nodes[slot];
    std::uint32_t *head;
    std::uint32_t *tail;
    const unsigned b = bucketOf(n.when);
    std::vector<Run>::iterator run = runs.end();
    if (b == 0) {
        run = findRun(n.band);
        head = &run->head;
        tail = &run->tail;
    } else {
        head = &heads[b];
        tail = &tails[b];
    }
    if (n.prev == kNil)
        *head = n.next;
    else
        nodes[n.prev].next = n.next;
    if (n.next == kNil)
        *tail = n.prev;
    else
        nodes[n.next].prev = n.prev;
    if (*head != kNil)
        return;
    if (b == 0)
        runs.erase(run);
    else
        occupied &= ~(1ull << (b - 1));
}

void
EventQueue::lowerBase(Tick when)
{
    // The old and new base first differ in bit h-1 (the old one has
    // the 1). Every event in bucket 0..h-1 shares the old base's bits
    // from h-1 up, so under the new base it belongs to bucket h, which
    // is empty; higher buckets keep their index. Whole lists move.
    const unsigned h = static_cast<unsigned>(std::bit_width(when ^ base));
    for (const Run &r : runs)
        splice(h, r.head, r.tail);
    runs.clear();
    for (unsigned b = 1; b < h; ++b) {
        if (heads[b] == kNil)
            continue;
        splice(h, heads[b], tails[b]);
        heads[b] = tails[b] = kNil;
        occupied &= ~(1ull << (b - 1));
    }
    base = when;
}

EventHandle
EventQueue::scheduleSlot(Tick when, std::uint32_t prio, bool internal)
{
    std::uint32_t slot = allocSlot();
    Record &rec = slab[slot];
    rec.scheduled = true;
    rec.internal = internal;
    Node &n = nodes[slot];
    n.when = when;
    n.band = prio;
    // The Simulator never schedules into the past, but the bare queue
    // accepts it.
    if (when < base)
        lowerBase(when);
    link(slot);
    ++numPending;
    return EventHandle{slot, rec.gen};
}

void
EventQueue::release(std::uint32_t slot)
{
    Record &rec = slab[slot];
    rec.scheduled = false;
    rec.fn = nullptr;
    ++rec.gen;
    freeSlots.push_back(slot);
}

bool
EventQueue::cancel(EventHandle handle)
{
    if (!pending(handle))
        return false;
    unlink(handle.slot);
    release(handle.slot);
    --numPending;
    return true;
}

bool
EventQueue::reclaim(EventHandle handle, EventFn &fn_out)
{
    if (!pending(handle))
        return false;
    fn_out = std::move(slab[handle.slot].fn);
    unlink(handle.slot);
    release(handle.slot);
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

unsigned
EventQueue::lowestBucket() const
{
    return static_cast<unsigned>(std::countr_zero(occupied)) + 1;
}

Tick
EventQueue::lowestTick() const
{
    const unsigned b = lowestBucket();
    Tick min = kMaxTick;
    for (std::uint32_t s = heads[b]; s != kNil; s = nodes[s].next)
        min = std::min(min, nodes[s].when);
    return min;
}

void
EventQueue::advance(Tick when)
{
    // Every event of the lowest bucket moves to a strictly lower one
    // under the new base (the earliest to bucket 0), and higher
    // buckets keep their index. Relinking in list order keeps each
    // (tick, band) group in scheduling order.
    const unsigned b = lowestBucket();
    std::uint32_t s = heads[b];
    heads[b] = tails[b] = kNil;
    occupied &= ~(1ull << (b - 1));
    base = when;
    while (s != kNil) {
        const std::uint32_t next = nodes[s].next;
        link(s);
        s = next;
    }
}

Tick
EventQueue::nextTime() const
{
    if (!runs.empty())
        return base;
    return occupied == 0 ? kMaxTick : lowestTick();
}

void
EventQueue::popAtBase(Tick &when_out, EventFn &fn_out)
{
    Run &r = runs.back();
    const std::uint32_t slot = r.head;
    const std::uint32_t next = nodes[slot].next;
    if (next == kNil) {
        runs.pop_back();
    } else {
        r.head = next;
        nodes[next].prev = kNil;
    }
    Record &rec = slab[slot];
    fn_out = std::move(rec.fn);
    numInternal += rec.internal;
    release(slot);
    --numPending;
    ++numExecuted;
    when_out = base;
}

bool
EventQueue::popNext(Tick &when_out, EventFn &fn_out)
{
    return popNextIfBefore(kMaxTick, when_out, fn_out);
}

bool
EventQueue::popNextIfBefore(Tick until, Tick &when_out, EventFn &fn_out)
{
    if (runs.empty()) {
        if (occupied == 0)
            return false;
        const Tick when = lowestTick();
        if (when > until)
            return false;
        advance(when);
    } else if (base > until) {
        return false;
    }
    popAtBase(when_out, fn_out);
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
    auto drop = [this](std::uint32_t s) {
        while (s != kNil) {
            const std::uint32_t next = nodes[s].next;
            release(s);
            s = next;
        }
    };
    for (const Run &r : runs)
        drop(r.head);
    runs.clear();
    for (unsigned b = 1; b < kBuckets; ++b) {
        drop(heads[b]);
        heads[b] = tails[b] = kNil;
    }
    occupied = 0;
    numPending = 0;
}

std::size_t
EventQueue::linkedEntries() const
{
    std::size_t n = 0;
    auto count = [&](std::uint32_t s) {
        for (; s != kNil; s = nodes[s].next)
            ++n;
    };
    for (const Run &r : runs)
        count(r.head);
    for (unsigned b = 1; b < kBuckets; ++b)
        count(heads[b]);
    return n;
}

} // namespace afa::sim

/**
 * @file
 * The discrete-event queue at the heart of the simulator.
 *
 * Events are closures scheduled at an absolute tick. Every event
 * carries an ordering band (@c prio): same-tick events execute in
 * ascending band order, FIFO-stable within a band. Band 0 is the
 * default -- plain scheduling order, the classic serial-DES rule.
 * Non-zero bands exist for "post-class" events whose same-tick order
 * must be a deterministic function of the model alone (not of which
 * execution path happened to insert them first); the sharded
 * simulator relies on them to keep replay bit-identical at any shard
 * count (see Simulator::scheduleOnShard()). Scheduling returns an
 * EventHandle that can be used to cancel the event before it fires;
 * handles are generation-checked so a stale handle can never cancel a
 * recycled slot.
 */

#ifndef AFA_SIM_EVENT_QUEUE_HH
#define AFA_SIM_EVENT_QUEUE_HH

#include <cstdint>
#include <vector>

#include "sim/event_fn.hh"
#include "sim/types.hh"

namespace afa::sim {

/**
 * Opaque reference to a scheduled event.
 *
 * A default-constructed handle is "null" and valid to cancel (a no-op).
 */
struct EventHandle
{
    std::uint32_t slot = kNullSlot;
    std::uint32_t gen = 0;

    static constexpr std::uint32_t kNullSlot = 0xffffffffu;

    /** True when this handle refers to some (possibly past) event. */
    bool valid() const { return slot != kNullSlot; }

    bool operator==(const EventHandle &other) const = default;
};

/**
 * Min-heap of timed events with FIFO tie-breaking and O(1) handle
 * cancellation.
 */
class EventQueue
{
  public:
    EventQueue();

    /**
     * Schedule @p fn to run at absolute time @p when.
     *
     * Accepts any `void()` callable; the closure is constructed
     * directly into its queue slot (no intermediate EventFn moves).
     * @param prio same-tick ordering band; 0 (the default) means
     *        plain FIFO scheduling order, higher bands run after
     *        every lower band of the same tick, FIFO within a band.
     * @param internal marks engine plumbing: the event is counted in
     *        internalExecuted() as well as executed() when it fires.
     *        The mark lives in the queue record, so it costs the
     *        closure no inline capture space.
     * @return handle usable with cancel().
     */
    template <typename F>
    EventHandle
    schedule(Tick when, F &&fn, std::uint32_t prio = 0,
             bool internal = false)
    {
        if constexpr (std::is_same_v<std::decay_t<F>, EventFn>) {
            if (!fn)
                panicNullCallback();
        }
        // The slot/heap bookkeeping is shared out-of-line code; only
        // the closure construction is stamped out per callable, so the
        // callback lands in its slot without any intermediate moves.
        EventHandle handle = scheduleSlot(when, prio, internal);
        slab[handle.slot].fn.assign(std::forward<F>(fn));
        return handle;
    }

    /**
     * Cancel a previously scheduled event.
     * @retval true the event was pending and is now cancelled.
     * @retval false the event already fired, was already cancelled,
     *         or the handle is null.
     */
    bool cancel(EventHandle handle);

    /**
     * Cancel a pending event and take back its callback (for
     * re-routing, e.g. a displaced fast-path delivery). The internal
     * mark stays behind: re-schedule the callback with its own.
     * @retval true the event was pending; @p fn_out holds its
     *         callback and the event will not fire.
     * @retval false the handle was stale; @p fn_out untouched.
     */
    bool reclaim(EventHandle handle, EventFn &fn_out);

    /** True if the given handle still refers to a pending event. */
    bool pending(EventHandle handle) const;

    /** Number of pending (non-cancelled) events. */
    std::size_t size() const { return numPending; }

    /** True when no events are pending. */
    bool empty() const { return numPending == 0; }

    /**
     * Time of the earliest pending event; kMaxTick when empty.
     * Discards stale (cancelled) heap entries as a side effect, so the
     * call is amortised O(log n).
     */
    Tick nextTime();

    /**
     * Pop and run the earliest pending event.
     * @param now_out receives the event's scheduled time.
     * @retval false when the queue was empty.
     */
    bool runNext(Tick &now_out);

    /**
     * Pop the earliest pending event without executing it. The caller
     * (the Simulator) advances its clock to @p when_out and then
     * invokes @p fn_out, so callbacks observe the correct time.
     * @retval false when the queue was empty.
     */
    bool popNext(Tick &when_out, EventFn &fn_out);

    /**
     * Pop the earliest pending event only if it is due at or before
     * @p until. Combines nextTime() + popNext() into one heap pass --
     * the Simulator::run() hot path.
     * @retval false when the queue is empty or the earliest event is
     *         after @p until (distinguish via empty()).
     */
    bool popNextIfBefore(Tick until, Tick &when_out, EventFn &fn_out);

    /** Total events executed since construction. */
    std::uint64_t executed() const { return numExecuted; }

    /** Events scheduled with internal = true executed since
     *  construction (a subset of executed(); counted at pop time). */
    std::uint64_t internalExecuted() const { return numInternal; }

    /** Drop every pending event. */
    void clear();

  private:
    struct Record
    {
        EventFn fn;
        std::uint32_t gen = 0;
        bool scheduled = false;
        bool internal = false; ///< engine plumbing (see schedule())
    };

    /** Slot index width inside a heap key (16M concurrent slots). */
    static constexpr unsigned kSlotBits = 24;
    static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
    /** Sequence numbers above this would overflow the packed key. */
    static constexpr std::uint64_t kMaxSeq = 1ull << (64 - kSlotBits);
    /** slotKey value marking a slot with no live heap entry. */
    static constexpr std::uint64_t kStaleKey = ~0ull;

    /**
     * Compact heap entry: the key packs (seq << 24 | slot), so
     * comparing keys compares seq (FIFO order; slots never tie
     * because seq is unique); prio is the same-tick ordering band.
     * Liveness is checked against the dense slotKey array instead of
     * the fat Record, keeping skims and pops inside two small arrays.
     */
    struct HeapEntry
    {
        Tick when;
        std::uint64_t key;
        std::uint32_t prio;
    };

    /** Min-order on (when, prio, seq); seq gives in-band FIFO. */
    static bool
    earlier(const HeapEntry &a, const HeapEntry &b)
    {
        if (a.when != b.when)
            return a.when < b.when;
        if (a.prio != b.prio)
            return a.prio < b.prio;
        return a.key < b.key;
    }

    /** Comparator for the std heap algorithms (max-heap inversion). */
    struct Later
    {
        bool
        operator()(const HeapEntry &a, const HeapEntry &b) const
        {
            return earlier(b, a);
        }
    };

    std::vector<Record> slab;
    std::vector<std::uint64_t> slotKey; ///< parallel to slab
    std::vector<std::uint32_t> freeSlots;
    std::vector<HeapEntry> heap;
    std::uint64_t nextSeq;
    std::uint64_t numExecuted;
    std::uint64_t numInternal;
    std::size_t numPending;

    /**
     * Allocate a slot, mark it scheduled, and push its heap entry;
     * the caller constructs the callback into the returned slot.
     */
    EventHandle scheduleSlot(Tick when, std::uint32_t prio,
                             bool internal);

    std::uint32_t
    allocSlot()
    {
        if (!freeSlots.empty()) {
            std::uint32_t slot = freeSlots.back();
            freeSlots.pop_back();
            return slot;
        }
        return growSlab();
    }

    /** Slow path of allocSlot: extend the record slab. */
    std::uint32_t growSlab();

    [[noreturn]] static void panicNullCallback();
    [[noreturn]] static void panicSeqExhausted();

    bool
    live(const HeapEntry &entry) const
    {
        return slotKey[entry.key & kSlotMask] == entry.key;
    }

    /** Remove and return the heap top (heap must be non-empty). */
    HeapEntry popTop();

    /**
     * Start pulling a live top entry's record into cache before the
     * heap sift runs; for deep heaps the slab access is a likely miss
     * that this hides behind the pop.
     */
    void
    prefetchRecord(const HeapEntry &entry) const
    {
#if defined(__GNUC__) || defined(__clang__)
        std::uint32_t slot =
            static_cast<std::uint32_t>(entry.key & kSlotMask);
        __builtin_prefetch(&slab[slot], 1);
#else
        (void)entry;
#endif
    }

    /** Pop cancelled entries off the heap top. */
    void skimStale();

    /** Extract a live record's callback after its entry is popped. */
    void
    takeRecord(const HeapEntry &entry, Tick &when_out, EventFn &fn_out)
    {
        std::uint32_t slot =
            static_cast<std::uint32_t>(entry.key & kSlotMask);
        Record &rec = slab[slot];
        fn_out = std::move(rec.fn);
        rec.fn = nullptr;
        rec.scheduled = false;
        ++rec.gen;
        slotKey[slot] = kStaleKey;
        freeSlots.push_back(slot);
        --numPending;
        ++numExecuted;
        numInternal += rec.internal;
        when_out = entry.when;
    }
};

} // namespace afa::sim

#endif // AFA_SIM_EVENT_QUEUE_HH

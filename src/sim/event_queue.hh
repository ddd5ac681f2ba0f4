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
 *
 * The queue is a radix queue on the event tick (DESIGN.md §9 "Event
 * queue"): every slot owns one list node, and cancel() or reclaim()
 * unlinks it at once, so the queue never holds more entries than
 * pending events.
 */

#ifndef AFA_SIM_EVENT_QUEUE_HH
#define AFA_SIM_EVENT_QUEUE_HH

#include <array>
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
 * Timed events popped in (when, band, scheduling order), with O(1)
 * handle cancellation.
 *
 * Layout: a radix base (the tick of the last event popped, or lower
 * after a schedule into the past) and 65 buckets. Bucket b >= 1 holds
 * the events whose tick first differs from the base in bit b-1, so
 * buckets cover disjoint, increasing tick ranges and the lowest
 * non-empty one comes from a 64-bit occupancy mask. Bucket 0 holds
 * the events due exactly at the base, as one FIFO list per band.
 * Lists are intrusive and doubly linked through a node array beside
 * the record slab, and every list only ever appends at its tail:
 * within one list, events of equal (tick, band) stay in scheduling
 * order, which is all the pop order needs.
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
        // The slot/bucket bookkeeping is shared out-of-line code; only
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
     * A peek: it scans the lowest non-empty bucket when no event is
     * due at the base, and never moves the base.
     */
    Tick nextTime() const;

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
     * @p until -- the Simulator::run() hot path. A refusal is a peek
     * and leaves the base where it was.
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

    /**
     * Entries linked into the buckets, counted by walking every list;
     * O(n), for tests. Equals size(): cancelled events leave nothing
     * behind.
     */
    std::size_t linkedEntries() const;

  private:
    struct Record
    {
        EventFn fn;
        std::uint32_t gen = 0;
        bool scheduled = false;
        bool internal = false; ///< engine plumbing (see schedule())
    };

    /** A slot's place in the buckets; its bucket is always
     *  bucketOf(when), so it is not stored. */
    struct Node
    {
        Tick when = 0;
        std::uint32_t band = 0;
        std::uint32_t prev = kNil;
        std::uint32_t next = kNil;
    };

    /** The FIFO list of one band's events due at the base. */
    struct Run
    {
        std::uint32_t band;
        std::uint32_t head;
        std::uint32_t tail;
    };

    /** End-of-list link. */
    static constexpr std::uint32_t kNil = 0xffffffffu;
    /** Slot cap: the Simulator tags mailbox handles above 24 bits. */
    static constexpr std::uint32_t kMaxSlots = 1u << 24;
    /** Buckets 1..64; index 0 is unused (bucket 0 is runs). */
    static constexpr unsigned kBuckets = 65;

    std::vector<Record> slab;
    std::vector<Node> nodes; ///< parallel to slab
    std::vector<std::uint32_t> freeSlots;
    /** Bucket 0, sorted by descending band: the back runs next. */
    std::vector<Run> runs;
    std::array<std::uint32_t, kBuckets> heads;
    std::array<std::uint32_t, kBuckets> tails;
    /** Bit b-1 set when bucket b >= 1 is non-empty. */
    std::uint64_t occupied;
    Tick base;
    std::uint64_t numExecuted;
    std::uint64_t numInternal;
    std::size_t numPending;

    /**
     * Allocate a slot, mark it scheduled, and link its node; the
     * caller constructs the callback into the returned slot.
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

    unsigned bucketOf(Tick when) const;
    /** Link a node into its bucket (by its tick and the base). */
    void link(std::uint32_t slot);
    /** Link a node due at the base into its band's run. */
    void linkAtBase(std::uint32_t slot);
    void append(std::uint32_t &head, std::uint32_t &tail,
                std::uint32_t slot);
    /** Move list [first, last] to the tail of bucket @p b. */
    void splice(unsigned b, std::uint32_t first, std::uint32_t last);
    void unlink(std::uint32_t slot);
    /** The run of @p band in bucket 0 (which must hold one). */
    std::vector<Run>::iterator findRun(std::uint32_t band);
    /** Move the base below every pending event to @p when. */
    void lowerBase(Tick when);
    /** The lowest non-empty bucket b >= 1 (occupied must be set). */
    unsigned lowestBucket() const;
    /** Earliest tick in the lowest non-empty bucket b >= 1. */
    Tick lowestTick() const;
    /** Make @p when (the lowestTick()) the base and redistribute its
     *  bucket; its earliest events land in bucket 0. */
    void advance(Tick when);
    /** Unlink the next event due at the base and retire its record;
     *  bucket 0 must be non-empty. */
    void popAtBase(Tick &when_out, EventFn &fn_out);
    /** Free a slot that is no longer linked. */
    void release(std::uint32_t slot);
};

} // namespace afa::sim

#endif // AFA_SIM_EVENT_QUEUE_HH

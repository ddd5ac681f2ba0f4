/**
 * @file
 * The Simulator owns simulated time, the event queues, and the root
 * random stream. All SimObjects hold a reference to one Simulator.
 *
 * With the default shard count of 1 this is the classic serial DES
 * core. With N > 1 shards it becomes a conservatively synchronised
 * parallel core: every SimObject belongs to exactly one shard, each
 * shard owns a private EventQueue and clock, and execution proceeds in
 * barrier-delimited windows. Each window the leader computes
 *
 *     M     = min over shards of the earliest pending event
 *     bound = min(until, M + L - 1)
 *
 * where L is the lookahead horizon (the minimum positive cross-shard
 * propagation latency, set by the model via setLookahead()), and every
 * shard executes its events with time <= bound in parallel. Events
 * that target another shard travel through the inter-shard mailbox
 * (scheduleOnShard()): posts are queued locally and drained by the
 * leader at the next barrier in source-major order, which gives
 * same-tick cross-shard deliveries a deterministic FIFO order that is
 * independent of thread scheduling. A cross post must be at least L
 * ticks in the future; the window bound guarantees it lands in a
 * strictly later window than the event that posted it, so no shard
 * ever receives an event in its past.
 *
 * Cancellation of a cross event is legal only from the posting shard
 * and only while the event is at least one full window away
 * (now + L <= when). Under that contract a cancellation is processed
 * at a barrier that strictly precedes the delivery's window, so a
 * cancelled crossing never fires -- cancel/deliver races are resolved
 * by barrier order, not by atomics.
 */

#ifndef AFA_SIM_SIMULATOR_HH
#define AFA_SIM_SIMULATOR_HH

#include <atomic>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/shard.hh"
#include "sim/types.hh"

namespace afa::sim {

/**
 * Per-shard execution counters for the simulator's self-profiling
 * source (telemetry). All simulated-time fields are bit-identical
 * across replays of the same configuration; barrierWaitNanos is host
 * wall time and is diagnostic only.
 */
struct ShardStat
{
    /** Model events executed on this shard (plumbing excluded). */
    std::uint64_t executedEvents = 0;
    /** Internal engine events (mailbox ships, telemetry samples). */
    std::uint64_t plumbingEvents = 0;
    /** scheduleOnShard() posts from this shard to a different one. */
    std::uint64_t crossPosts = 0;
    /** Host wall time this shard's thread spent parked at window
     *  barriers (includes the leader's drain/plan work for shard 0;
     *  zero in serial runs). */
    std::uint64_t barrierWaitNanos = 0;
};

/** Snapshot returned by Simulator::shardStats(). */
struct SimProfile
{
    std::vector<ShardStat> shards;
    /** Barrier-delimited execution windows planned so far. */
    std::uint64_t windows = 0;
    /** Cross-shard messages enqueued by the leader at barriers. */
    std::uint64_t mailboxDrained = 0;
};

/**
 * Discrete-event simulator: per-shard clocks and event queues, an
 * inter-shard mailbox, and a root RNG.
 */
class Simulator
{
  public:
    /** Hard cap on shards (cross-handle encoding allows far more;
     *  the cap keeps misconfigured inputs loud). */
    static constexpr unsigned kMaxShards = 64;

    /**
     * Construct with the root random seed and the shard count.
     * shard_count == 1 (the default) is the serial core; the root RNG
     * and all name-forked child streams are identical at any count.
     */
    explicit Simulator(std::uint64_t seed = 1, unsigned shard_count = 1);

    /** Number of shards (1 = serial). */
    unsigned shards() const
    {
        return static_cast<unsigned>(shardStates.size());
    }

    /**
     * Set the conservative lookahead horizon. Must be positive before
     * a sharded run(); cross-shard posts must be at least this far in
     * the future. The model derives it from its minimum cross-shard
     * latency (the PCIe fabric's minimum link propagation delay). A
     * horizon is a span of simulated time, not an absolute time, so
     * the API speaks TickDelta.
     */
    void
    setLookahead(TickDelta horizon)
    {
        lookaheadTicks = static_cast<Tick>(horizon.count());
    }

    /** The conservative sync horizon (zero = never set). */
    TickDelta
    lookahead() const
    {
        return TickDelta{static_cast<std::int64_t>(lookaheadTicks)};
    }

    /** Current simulated time on the calling thread's shard. */
    Tick now() const { return localShard().clock; }

    /** Schedule @p fn at absolute time @p when (>= now) on the
     *  calling thread's shard. */
    template <typename F>
    EventHandle
    scheduleAt(Tick when, F &&fn)
    {
        Shard &sh = localShard();
        if (when < sh.clock)
            panicPastEvent(when, sh.clock);
        return sh.q.schedule(when, std::forward<F>(fn));
    }

    /** Schedule @p fn @p delay ticks from now on the calling
     *  thread's shard. */
    template <typename F>
    EventHandle
    scheduleAfter(Tick delay, F &&fn)
    {
        Shard &sh = localShard();
        if (delay > kMaxTick - sh.clock)
            panicDelayOverflow();
        return sh.q.schedule(sh.clock + delay, std::forward<F>(fn));
    }

    /**
     * Schedule @p fn at absolute time @p when on @p shard -- the only
     * way to make another shard do something.
     *
     * Outside the parallel phase (setup code, serial runs) or when
     * @p shard is the calling shard, this degenerates to a direct
     * schedule into the target queue. During a parallel run it posts
     * into the mailbox and requires when >= now + lookahead.
     *
     * @param internal marks engine plumbing (e.g. shipping a send to
     *        the fabric's shard) whose count depends on the execution
     *        strategy; such events are excluded from executedEvents()
     *        so the count stays bit-identical across shard counts.
     * @param order same-tick ordering band (see EventQueue::schedule).
     *        Cross-capable events MUST use a non-zero, model-derived
     *        band: a band-0 event's same-tick position is its FIFO
     *        insertion rank, which differs between the direct path
     *        (inserted when posted) and the mailbox path (inserted at
     *        a barrier). A non-zero band makes the same-tick position
     *        a function of (tick, band, poster order) only, identical
     *        at any shard count. Conventions used by the model layers:
     *        0 = plain local events, 1 = fault-plan control posts,
     *        2 + <fabric node id> = packet deliveries to / ships from
     *        that node.
     * @return a handle; mailbox handles are tagged and may only be
     *         cancelled/reclaimed from the posting shard while the
     *         event is at least one lookahead window away.
     */
    EventHandle scheduleOnShard(unsigned shard, Tick when, EventFn fn,
                                bool internal = false,
                                std::uint32_t order = 0);

    /** Cancel a pending event; see EventQueue::cancel. Cross-shard
     *  handles obey the window contract documented on
     *  scheduleOnShard(). */
    bool cancel(EventHandle handle);

    /** True if @p handle refers to a pending event. */
    bool pending(EventHandle handle) const;

    /**
     * Cancel a pending event posted via scheduleOnShard() and take
     * back its callback (for re-routing, e.g. a fast-path flight
     * displaced after its delivery was already posted). Works on both
     * mailbox handles (cross-shard posts; the window contract of
     * scheduleOnShard() applies) and plain handles of the calling
     * shard's queue (same-shard posts). Panics if the event already
     * fired or was cancelled: callers use this only when the contract
     * guarantees the event cannot have fired.
     */
    EventFn reclaim(EventHandle handle);

    /**
     * Run until every queue drains or @p until is reached.
     *
     * Events scheduled exactly at @p until do execute; no clock
     * advances past @p until. On return all shard clocks are
     * equalised to the global maximum (clamped up to @p until when
     * events remain), matching the serial clock semantics.
     *
     * @return number of model events executed by this call
     *         (excluding internal plumbing events).
     */
    std::uint64_t run(Tick until = kMaxTick);

    /**
     * Run at most @p max_events events (for debugging/stepping).
     * Sharded simulators are stepped sequentially in global time
     * order, one event at a time, with mailboxes drained between
     * steps -- same-tick cross-shard interleavings may differ from a
     * parallel run().
     * @return number executed.
     */
    std::uint64_t runSteps(std::uint64_t max_events);

    /** Request that run() return after the current window completes
     *  (after the current event, when serial). Safe from any shard. */
    void
    requestStop()
    {
        stopRequested.store(true, std::memory_order_relaxed);
    }

    /** True while a stop request is outstanding. */
    bool
    stopping() const
    {
        return stopRequested.load(std::memory_order_relaxed);
    }

    /** Pending event count, summed over all shards. */
    std::size_t pendingEvents() const;

    /** Total model events executed since construction, summed over
     *  all shards and excluding internal plumbing events, so the
     *  value is bit-identical across shard counts. */
    std::uint64_t executedEvents() const;

    /**
     * Self-profiling snapshot: per-shard executed/plumbing event
     * counts, cross-shard mailbox posts, barrier wait wall time, and
     * the global window/drain counters.
     *
     * Safe to call from a shard-0 event during a parallel run: the
     * leader refreshes the snapshot at every window barrier (while
     * all workers are parked), and shard-0 events execute on the
     * leader thread, so the read is same-thread and at most one
     * window stale. Outside the parallel phase the snapshot is
     * computed live.
     */
    SimProfile shardStats() const;

    /** The root random stream (fork children from this). */
    Rng &rng() { return rootRng; }

    /** The seed the simulation was constructed with. */
    std::uint64_t seed() const { return rootRng.seed(); }

    /** Panic unless @p shard names a valid shard. */
    void checkShardId(unsigned shard) const;

  private:
    friend class ShardScope;

    /** Mailbox entry states; transitions are barrier-ordered. */
    enum MsgState : std::uint8_t {
        kMsgFree,      ///< slot on the freelist
        kMsgOutbox,    ///< posted, not yet drained by the leader
        kMsgQueued,    ///< scheduled into the destination queue
        kMsgCancelled, ///< cancelled before delivery
        kMsgFired,     ///< delivered; slot awaiting recycle
    };

    /** One cross-shard message. Stable address (owned via
     *  unique_ptr) so the destination shard can fire it while the
     *  source shard grows its slab. */
    struct CrossMsg
    {
        EventFn fn;
        Tick when = 0;
        EventHandle queued{};
        std::uint32_t gen = 0;
        std::uint32_t order = 0; ///< same-tick ordering band
        std::uint16_t dst = 0;
        MsgState state = kMsgFree;
        bool internal = false;
    };

    /** Per-shard state. Mailbox vectors are written only by the
     *  owning thread during the parallel phase and by the leader at
     *  barriers; retired is the exception -- it collects (src, idx)
     *  pairs for messages *delivered on this shard*, so it too is
     *  only written by its owner. */
    struct alignas(64) Shard
    {
        EventQueue q;
        Tick clock = 0;
        /** Internal mailbox deliveries executed here; internal
         *  queue events are counted by the queue itself. */
        std::uint64_t plumbing = 0;
        std::uint64_t crossPosts = 0; ///< posts to other shards
        std::uint64_t barrierWaitNanos = 0; ///< wall ns at barriers
        std::vector<std::unique_ptr<CrossMsg>> slab;
        std::vector<std::uint32_t> freeSlab;
        std::vector<std::uint32_t> outbox;
        std::vector<std::uint32_t> cancelReq;
        std::vector<std::pair<std::uint16_t, std::uint32_t>> retired;
    };

    /** Cross-handle encoding in EventHandle::slot: bit 31 tags a
     *  mailbox handle (real queue slots use 24 bits; kNullSlot is
     *  excluded by valid()), bits 30..20 the source shard, bits
     *  19..0 the slab index. */
    static constexpr std::uint32_t kCrossBit = 0x80000000u;
    static constexpr unsigned kCrossSrcShift = 20;
    static constexpr std::uint32_t kCrossIdxMask = (1u << 20) - 1;

    Shard &
    localShard()
    {
        return *shardStates[t_currentShard];
    }
    const Shard &
    localShard() const
    {
        return *shardStates[t_currentShard];
    }

    enum class EndReason { Stopped, Drained, Bound };

    std::uint64_t runSerial(Tick until);
    std::uint64_t runParallel(Tick until);
    void planRound(Tick until);
    void finishRound(Tick until, EndReason reason);
    void drainMailboxes();
    void fireCross(CrossMsg *msg, unsigned src, std::uint32_t idx);
    void recycleMsg(Shard &src, std::uint32_t idx);
    bool cancelCross(EventHandle handle, EventFn *reclaimed);
    std::uint64_t modelExecuted() const;
    /** Internal (plumbing) events executed on @p sh. */
    static std::uint64_t
    plumbingOf(const Shard &sh)
    {
        return sh.plumbing + sh.q.internalExecuted();
    }
    void collectProfile(SimProfile &out) const;

    [[noreturn]] static void panicPastEvent(Tick when, Tick now_tick);
    [[noreturn]] static void panicDelayOverflow();

    std::vector<std::unique_ptr<Shard>> shardStates;
    Tick lookaheadTicks = 0;
    Tick roundBound = 0;
    bool roundDone = false;
    bool parallelPhase = false;
    bool workersRunning = false; ///< inside runParallel()'s threads
    std::uint64_t windowCount = 0;        ///< windows planned
    std::uint64_t mailboxDrainedCount = 0; ///< messages enqueued
    /** Leader-written at each barrier; read by shard-0 events (same
     *  thread) while workers are parked. */
    SimProfile profileSnapshot;
    std::atomic<bool> stopRequested;
    Rng rootRng;
};

/**
 * RAII shard-affinity scope for setup code: SimObjects constructed
 * (and start()-ed) inside the scope schedule into the given shard.
 * Only meaningful outside the parallel phase; worker threads pin
 * their own cursor.
 */
class ShardScope
{
  public:
    ShardScope(Simulator &sim, unsigned shard) : saved(t_currentShard)
    {
        sim.checkShardId(shard);
        t_currentShard = shard;
    }
    ~ShardScope() { t_currentShard = saved; }
    ShardScope(const ShardScope &) = delete;
    ShardScope &operator=(const ShardScope &) = delete;

  private:
    unsigned saved;
};

} // namespace afa::sim

#endif // AFA_SIM_SIMULATOR_HH

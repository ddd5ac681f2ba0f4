/**
 * @file
 * The Simulator owns simulated time, the event queue, and the root
 * random stream. All SimObjects hold a reference to one Simulator.
 *
 * It is a plain serial DES core: one EventQueue, one clock, events
 * popped in (tick, band, scheduling order). Runs that want more than
 * one CPU spread whole runs over workers (the run plan's --jobs), never
 * one run over threads.
 */

#ifndef AFA_SIM_SIMULATOR_HH
#define AFA_SIM_SIMULATOR_HH

#include <cstdint>
#include <utility>
#include <vector>

#include "sim/event_queue.hh"
#include "sim/random.hh"
#include "sim/types.hh"

namespace afa::sim {

/** Executed-event counters of the one event loop. */
struct ShardStat
{
    /** Model events executed (plumbing excluded). */
    std::uint64_t executedEvents = 0;
    /** Internal engine events (device ships, telemetry samples). */
    std::uint64_t plumbingEvents = 0;
};

/**
 * Snapshot returned by Simulator::shardStats(): always exactly one
 * entry. Kept only because the benchmark harness reads
 * shardStats().shards[*].plumbingEvents; new code reads
 * plumbingEvents() instead.
 */
struct SimProfile
{
    std::vector<ShardStat> shards;
};

/** Discrete-event simulator: a clock, an event queue and a root RNG. */
class Simulator
{
  public:
    /** Construct with the root random seed. */
    explicit Simulator(std::uint64_t seed = 1) : rootRng(seed) {}

    /** Current simulated time. */
    Tick now() const { return clock; }

    /**
     * Schedule @p fn at absolute time @p when (>= now).
     *
     * @param band same-tick ordering band (see EventQueue::schedule).
     *        Band 0 is plain FIFO scheduling order. The model layers
     *        use non-zero bands to keep the committed same-tick
     *        positions: 1 = fault-plan controller posts, 2 + <fabric
     *        node id> = packet deliveries to / ships from that node,
     *        Telemetry::kSampleOrderBand = window samples.
     * @param internal marks engine plumbing (the device-to-fabric
     *        ship, telemetry samples); such events are excluded from
     *        executedEvents() and counted in plumbingEvents().
     */
    template <typename F>
    EventHandle
    scheduleAt(Tick when, F &&fn, std::uint32_t band = 0,
               bool internal = false)
    {
        if (when < clock)
            panicPastEvent(when, clock);
        return q.schedule(when, std::forward<F>(fn), band, internal);
    }

    /** Schedule @p fn @p delay ticks from now. */
    template <typename F>
    EventHandle
    scheduleAfter(Tick delay, F &&fn)
    {
        if (delay > kMaxTick - clock)
            panicDelayOverflow();
        return q.schedule(clock + delay, std::forward<F>(fn));
    }

    /** Cancel a pending event; see EventQueue::cancel. */
    bool cancel(EventHandle handle) { return q.cancel(handle); }

    /** True if @p handle refers to a pending event. */
    bool pending(EventHandle handle) const { return q.pending(handle); }

    /**
     * Cancel a pending event and take back its callback (for
     * re-routing, e.g. a fast-path flight displaced after its
     * delivery was already scheduled). Panics if the event already
     * fired or was cancelled: callers use this only when the model
     * guarantees the event cannot have fired.
     */
    EventFn reclaim(EventHandle handle);

    /**
     * Run until the queue drains or @p until is reached.
     *
     * Events scheduled exactly at @p until do execute; the clock
     * never advances past @p until, and rests at it when events
     * remain beyond it.
     *
     * @return number of model events executed by this call
     *         (excluding internal plumbing events).
     */
    std::uint64_t run(Tick until = kMaxTick);

    /**
     * Run at most @p max_events events (for debugging/stepping).
     * @return number executed, plumbing included.
     */
    std::uint64_t runSteps(std::uint64_t max_events);

    /** Request that run() return after the current event. */
    void requestStop() { stopRequested = true; }

    /** True while a stop request is outstanding. */
    bool stopping() const { return stopRequested; }

    /** Pending event count. */
    std::size_t pendingEvents() const { return q.size(); }

    /** Total model events executed since construction, excluding
     *  internal plumbing events. */
    std::uint64_t
    executedEvents() const
    {
        return q.executed() - q.internalExecuted();
    }

    /** Internal plumbing events executed since construction. The
     *  queue counts an event when it pops it, so a sample reading
     *  this mid-callback sees itself already counted. */
    std::uint64_t plumbingEvents() const { return q.internalExecuted(); }

    /** The counters above as a one-entry SimProfile (see there). */
    SimProfile
    shardStats() const
    {
        return SimProfile{{ShardStat{executedEvents(), plumbingEvents()}}};
    }

    /** The root random stream (fork children from this). */
    Rng &rng() { return rootRng; }

    /** The seed the simulation was constructed with. */
    std::uint64_t seed() const { return rootRng.seed(); }

  private:
    [[noreturn]] static void panicPastEvent(Tick when, Tick now_tick);
    [[noreturn]] static void panicDelayOverflow();

    EventQueue q;
    Tick clock = 0;
    bool stopRequested = false;
    Rng rootRng;
};

} // namespace afa::sim

#endif // AFA_SIM_SIMULATOR_HH

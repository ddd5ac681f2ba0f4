#include "sim/simulator.hh"

#include <algorithm>
#include <barrier>
#include <chrono>
#include <thread>

#include "sim/logging.hh"

namespace afa::sim {

// Definition of the per-thread shard cursor declared in shard.hh.
// Per-thread by construction, never shared across threads.
thread_local unsigned t_currentShard = 0; // detlint:allow(mutable-static)

Simulator::Simulator(std::uint64_t seed, unsigned shard_count)
    : stopRequested(false), rootRng(seed)
{
    if (shard_count == 0)
        shard_count = 1;
    if (shard_count > kMaxShards)
        panic("Simulator: %u shards exceeds the cap of %u", shard_count,
              kMaxShards);
    shardStates.reserve(shard_count);
    for (unsigned s = 0; s < shard_count; ++s)
        shardStates.push_back(std::make_unique<Shard>());
}

void
Simulator::panicPastEvent(Tick when, Tick now_tick)
{
    panic("scheduleAt: time %llu is in the past (now %llu)",
          (unsigned long long)when, (unsigned long long)now_tick);
}

void
Simulator::panicDelayOverflow()
{
    panic("scheduleAfter: delay overflows the clock");
}

void
Simulator::checkShardId(unsigned shard) const
{
    if (shard >= shardStates.size())
        panic("shard %u out of range (have %zu)", shard,
              shardStates.size());
}

EventHandle
Simulator::scheduleOnShard(unsigned shard, Tick when, EventFn fn,
                           bool internal, std::uint32_t order)
{
    checkShardId(shard);
    const unsigned cur = t_currentShard;
    Shard &src = *shardStates[cur];
    if (shard != cur)
        ++src.crossPosts;
    if (!parallelPhase || shard == cur) {
        // Direct path: setup code, serial runs, or a same-shard post.
        // The handle is a plain queue handle of the *target* shard;
        // cancel it only from there.
        if (when < src.clock)
            panicPastEvent(when, src.clock);
        // Internal events carry the plumbing mark in their queue
        // record; the queue counts them at pop time, before the
        // callback runs, so an internal event observing shardStats()
        // mid-callback (a telemetry sample) sees executed - plumbing
        // with itself in both counters — i.e. exactly the model
        // events so far.
        return shardStates[shard]->q.schedule(when, std::move(fn), order,
                                              internal);
    }

    // Mailbox path: the post must clear the conservative horizon so
    // it lands in a strictly later window on the destination shard.
    if (when < src.clock || when - src.clock < lookaheadTicks)
        panic("scheduleOnShard: cross post at %llu violates the "
              "lookahead horizon (now %llu, lookahead %llu)",
              (unsigned long long)when, (unsigned long long)src.clock,
              (unsigned long long)lookaheadTicks);
    std::uint32_t idx;
    if (!src.freeSlab.empty()) {
        idx = src.freeSlab.back();
        src.freeSlab.pop_back();
    } else {
        if (src.slab.size() > kCrossIdxMask)
            panic("scheduleOnShard: cross-event slab exhausted");
        idx = static_cast<std::uint32_t>(src.slab.size());
        src.slab.push_back(std::make_unique<CrossMsg>());
    }
    CrossMsg &m = *src.slab[idx];
    m.fn = std::move(fn);
    m.when = when;
    m.queued = EventHandle{};
    m.order = order;
    m.dst = static_cast<std::uint16_t>(shard);
    m.state = kMsgOutbox;
    m.internal = internal;
    src.outbox.push_back(idx);
    return EventHandle{kCrossBit | (cur << kCrossSrcShift) | idx, m.gen};
}

bool
Simulator::cancel(EventHandle handle)
{
    if (!handle.valid())
        return false;
    if (handle.slot & kCrossBit)
        return cancelCross(handle, nullptr);
    return localShard().q.cancel(handle);
}

bool
Simulator::pending(EventHandle handle) const
{
    if (!handle.valid())
        return false;
    if (handle.slot & kCrossBit) {
        const unsigned src =
            (handle.slot & ~kCrossBit) >> kCrossSrcShift;
        const std::uint32_t idx = handle.slot & kCrossIdxMask;
        if (src >= shardStates.size() ||
            idx >= shardStates[src]->slab.size())
            return false;
        const CrossMsg &m = *shardStates[src]->slab[idx];
        return m.gen == handle.gen &&
               (m.state == kMsgOutbox || m.state == kMsgQueued);
    }
    return localShard().q.pending(handle);
}

bool
Simulator::cancelCross(EventHandle handle, EventFn *reclaimed)
{
    const unsigned src = (handle.slot & ~kCrossBit) >> kCrossSrcShift;
    const std::uint32_t idx = handle.slot & kCrossIdxMask;
    if (src >= shardStates.size() ||
        idx >= shardStates[src]->slab.size())
        return false;
    Shard &sh = *shardStates[src];
    CrossMsg &m = *sh.slab[idx];
    if (m.gen != handle.gen ||
        (m.state != kMsgOutbox && m.state != kMsgQueued))
        return false;
    if (parallelPhase) {
        // Only the posting shard may cancel, and only while the
        // delivery is at least one lookahead window away: that keeps
        // cancel strictly barrier-ordered before fire.
        if (t_currentShard != src)
            panic("cancel of a cross event from shard %u (posted by "
                  "shard %u)", t_currentShard, src);
        const Tick local_now = sh.clock;
        if (m.when < local_now || m.when - local_now < lookaheadTicks)
            panic("cross-event cancel at %llu inside the delivery "
                  "window of %llu (lookahead %llu)",
                  (unsigned long long)local_now,
                  (unsigned long long)m.when,
                  (unsigned long long)lookaheadTicks);
    }
    if (reclaimed)
        *reclaimed = std::move(m.fn);
    if (m.state == kMsgOutbox) {
        // Not yet drained: the leader recycles it when it sweeps the
        // outbox (or immediately when we are not running).
        m.state = kMsgCancelled;
        if (!parallelPhase)
            drainMailboxes();
    } else {
        m.state = kMsgCancelled;
        if (parallelPhase) {
            sh.cancelReq.push_back(idx);
        } else {
            shardStates[m.dst]->q.cancel(m.queued);
            recycleMsg(sh, idx);
        }
    }
    return true;
}

EventFn
Simulator::reclaim(EventHandle handle)
{
    if (!handle.valid())
        panic("reclaim: null handle");
    EventFn fn;
    if (handle.slot & kCrossBit) {
        if (!cancelCross(handle, &fn))
            panic("reclaim: cross event already fired or cancelled");
        return fn;
    }
    if (!localShard().q.reclaim(handle, fn))
        panic("reclaim: event already fired or cancelled");
    return fn;
}

void
Simulator::recycleMsg(Shard &src, std::uint32_t idx)
{
    CrossMsg &m = *src.slab[idx];
    m.fn = nullptr;
    m.state = kMsgFree;
    ++m.gen; // invalidate outstanding handles
    src.freeSlab.push_back(idx);
}

void
Simulator::fireCross(CrossMsg *msg, unsigned src, std::uint32_t idx)
{
    // Runs on the destination shard. Cancelled entries are removed
    // from this queue at a preceding barrier, so a firing entry is
    // always live. The slot itself is recycled by the leader at the
    // next barrier, via this shard's retired list.
    Shard &here = *shardStates[t_currentShard];
    // Before the callback, matching the queue's pop-time executed
    // and internal counters (see scheduleOnShard): a sample reading
    // shardStats() mid-callback sees itself in both counters.
    if (msg->internal)
        ++here.plumbing;
    EventFn fn = std::move(msg->fn);
    msg->state = kMsgFired;
    here.retired.emplace_back(static_cast<std::uint16_t>(src), idx);
    fn();
}

std::uint64_t
Simulator::modelExecuted() const
{
    std::uint64_t n = 0;
    for (const auto &sp : shardStates)
        n += sp->q.executed() - plumbingOf(*sp);
    return n;
}

std::uint64_t
Simulator::executedEvents() const
{
    return modelExecuted();
}

void
Simulator::collectProfile(SimProfile &out) const
{
    out.shards.resize(shardStates.size());
    for (std::size_t s = 0; s < shardStates.size(); ++s) {
        const Shard &sh = *shardStates[s];
        ShardStat &st = out.shards[s];
        st.executedEvents = sh.q.executed() - plumbingOf(sh);
        st.plumbingEvents = plumbingOf(sh);
        st.crossPosts = sh.crossPosts;
        st.barrierWaitNanos = sh.barrierWaitNanos;
    }
    out.windows = windowCount;
    out.mailboxDrained = mailboxDrainedCount;
}

SimProfile
Simulator::shardStats() const
{
    // During a parallel run the live per-shard counters belong to
    // their worker threads; hand out the barrier-synchronised
    // snapshot the leader refreshed in planRound() instead.
    if (workersRunning)
        return profileSnapshot;
    SimProfile profile;
    collectProfile(profile);
    return profile;
}

std::size_t
Simulator::pendingEvents() const
{
    std::size_t n = 0;
    for (const auto &sp : shardStates)
        n += sp->q.size() + sp->outbox.size();
    return n;
}

std::uint64_t
Simulator::run(Tick until)
{
    if (shardStates.size() == 1)
        return runSerial(until);
    return runParallel(until);
}

std::uint64_t
Simulator::runSerial(Tick until)
{
    Shard &sh = *shardStates[0];
    const std::uint64_t before = modelExecuted();
    stopRequested.store(false, std::memory_order_relaxed);
    while (!stopRequested.load(std::memory_order_relaxed)) {
        Tick when = 0;
        EventFn fn;
        if (!sh.q.popNextIfBefore(until, when, fn)) {
            if (sh.q.empty())
                break; // drained
            // Next event is beyond the bound; never move the clock
            // backwards when the bound is in the past.
            sh.clock = std::max(sh.clock, until);
            break;
        }
        sh.clock = when;
        fn();
    }
    return modelExecuted() - before;
}

std::uint64_t
Simulator::runParallel(Tick until)
{
    if (lookaheadTicks == 0)
        panic("sharded run: setLookahead() must be called with a "
              "positive horizon first");
    stopRequested.store(false, std::memory_order_relaxed);
    const std::uint64_t before = modelExecuted();
    parallelPhase = true;
    workersRunning = true;
    roundDone = false;
    std::barrier<> gate(
        static_cast<std::ptrdiff_t>(shardStates.size()));

    // Two barriers per window: the first closes the previous window
    // (all mailbox writes quiesced) so the leader can drain and plan
    // alone; the second publishes the plan. All shared plain-field
    // accesses are ordered by the barriers.
    auto body = [&](unsigned s) {
        t_currentShard = s;
        Shard &sh = *shardStates[s];
        for (;;) {
            // Wall clock feeds the self-profiling barrier-stall
            // counter only; it never reaches simulated state.
            const auto wait_from = // detlint:allow(wall-clock)
                std::chrono::steady_clock::now();
            gate.arrive_and_wait();
            if (s == 0)
                planRound(until);
            gate.arrive_and_wait();
            sh.barrierWaitNanos += static_cast<std::uint64_t>(
                std::chrono::duration_cast<std::chrono::nanoseconds>(
                    std::chrono::steady_clock::now() - // detlint:allow(wall-clock)
                    wait_from)
                    .count());
            if (roundDone)
                break;
            const Tick bound = roundBound;
            Tick when = 0;
            EventFn fn;
            while (sh.q.popNextIfBefore(bound, when, fn)) {
                sh.clock = when;
                fn();
                if (stopRequested.load(std::memory_order_relaxed))
                    break;
            }
        }
        t_currentShard = 0;
    };

    std::vector<std::thread> workers;
    workers.reserve(shardStates.size() - 1);
    for (unsigned s = 1; s < shardStates.size(); ++s)
        workers.emplace_back(body, s);
    body(0);
    for (auto &w : workers)
        w.join();
    workersRunning = false;
    parallelPhase = false;
    return modelExecuted() - before;
}

void
Simulator::drainMailboxes()
{
    // Leader-only (or single-threaded) barrier work, in a fixed
    // order so cross-shard arrivals are deterministic:
    //  (a) apply queued-event cancellations,
    //  (b) recycle slots whose deliveries fired last window,
    //  (c) drain outboxes source-major -- same-tick crossings enqueue
    //      in (source shard, post order), independent of thread
    //      interleaving.
    for (auto &sp : shardStates) {
        Shard &src = *sp;
        for (std::uint32_t idx : src.cancelReq) {
            CrossMsg &m = *src.slab[idx];
            shardStates[m.dst]->q.cancel(m.queued);
            recycleMsg(src, idx);
        }
        src.cancelReq.clear();
        for (auto [msrc, idx] : src.retired)
            recycleMsg(*shardStates[msrc], idx);
        src.retired.clear();
    }
    for (unsigned s = 0; s < shardStates.size(); ++s) {
        Shard &src = *shardStates[s];
        for (std::uint32_t idx : src.outbox) {
            CrossMsg *m = src.slab[idx].get();
            if (m->state == kMsgCancelled) {
                recycleMsg(src, idx);
                continue;
            }
            m->queued = shardStates[m->dst]->q.schedule(
                m->when,
                [this, m, s, idx] { fireCross(m, s, idx); },
                m->order);
            m->state = kMsgQueued;
            ++mailboxDrainedCount;
        }
        src.outbox.clear();
    }
}

void
Simulator::planRound(Tick until)
{
    drainMailboxes();

    // Workers are parked between the two barriers, so the per-shard
    // counters are quiescent: refresh the snapshot shard-0 telemetry
    // events read during the coming window.
    collectProfile(profileSnapshot);

    if (stopRequested.load(std::memory_order_relaxed)) {
        finishRound(until, EndReason::Stopped);
        return;
    }
    Tick next = kMaxTick;
    bool all_empty = true;
    for (const auto &sp : shardStates) {
        next = std::min(next, sp->q.nextTime());
        all_empty = all_empty && sp->q.empty();
    }
    if (all_empty) {
        finishRound(until, EndReason::Drained);
        return;
    }
    if (next > until) {
        finishRound(until, EndReason::Bound);
        return;
    }
    const Tick horizon = lookaheadTicks - 1;
    roundBound =
        std::min(until, next > kMaxTick - horizon ? kMaxTick
                                                  : next + horizon);
    roundDone = false;
    ++windowCount;
}

void
Simulator::finishRound(Tick until, EndReason reason)
{
    // Equalise the shard clocks so post-run scheduling sees one
    // coherent "now", mirroring the serial semantics: the clock rests
    // at the latest executed event, clamped up to the bound when
    // events remain beyond it.
    Tick fin = 0;
    for (const auto &sp : shardStates)
        fin = std::max(fin, sp->clock);
    if (reason == EndReason::Bound)
        fin = std::max(fin, until);
    for (auto &sp : shardStates)
        sp->clock = fin;
    roundDone = true;
}

std::uint64_t
Simulator::runSteps(std::uint64_t max_events)
{
    std::uint64_t executed = 0;
    stopRequested.store(false, std::memory_order_relaxed);
    if (shardStates.size() == 1) {
        Shard &sh = *shardStates[0];
        while (executed < max_events &&
               !stopRequested.load(std::memory_order_relaxed)) {
            Tick when = 0;
            EventFn fn;
            if (!sh.q.popNext(when, fn))
                break;
            sh.clock = when;
            fn();
            ++executed;
        }
        return executed;
    }

    // Sequentialised stepping: globally earliest event first (lowest
    // shard wins ties), mailboxes drained between steps. Cross posts
    // still obey the lookahead contract so stepping and run() agree
    // on which events exist, though same-tick cross interleavings may
    // differ.
    parallelPhase = true;
    while (executed < max_events &&
           !stopRequested.load(std::memory_order_relaxed)) {
        drainMailboxes();
        unsigned best = 0;
        Tick best_t = kMaxTick;
        for (unsigned s = 0; s < shardStates.size(); ++s) {
            const Tick t = shardStates[s]->q.nextTime();
            if (t < best_t) {
                best_t = t;
                best = s;
            }
        }
        if (best_t == kMaxTick)
            break;
        Shard &sh = *shardStates[best];
        Tick when = 0;
        EventFn fn;
        if (!sh.q.popNext(when, fn))
            continue;
        t_currentShard = best;
        sh.clock = when;
        fn();
        t_currentShard = 0;
        ++executed;
    }
    drainMailboxes();
    parallelPhase = false;
    return executed;
}

} // namespace afa::sim

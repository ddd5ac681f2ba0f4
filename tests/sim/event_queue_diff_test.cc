/**
 * @file
 * Differential tests for the event queue against a reference model:
 * a std::set of (when, band, seq) keys, whose minimum is by definition
 * the next event to pop. Over a million seeded operations the queue
 * must pop exactly the reference's minimum, agree on size() and
 * nextTime(), and keep exactly size() entries linked. The remaining
 * tests pin the shapes the simulator depends on: a driver that arms
 * and cancels a timeout per command, and large same-tick cohorts,
 * whose drain cost must stay linear (the ctest timeout of the test_sim
 * binary turns a quadratic drain into a failure).
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <functional>
#include <random>
#include <set>
#include <tuple>
#include <vector>

#include "sim/event_queue.hh"

using afa::sim::EventFn;
using afa::sim::EventHandle;
using afa::sim::EventQueue;
using afa::sim::kMaxTick;
using afa::sim::Tick;

namespace {

/** The band of telemetry samples (obs/telemetry.hh). */
constexpr std::uint32_t kTopBand = 0xffffffffu;

/**
 * One queue driven in lock step with its reference set. Event ids are
 * their scheduling sequence numbers, so the reference key of an event
 * is (when, band, id).
 */
class DiffHarness
{
  public:
    explicit DiffHarness(std::uint64_t seed) : rng(seed) {}

    /** Run @p ops random operations, checking after every one. */
    void
    run(int ops)
    {
        for (int i = 0; i < ops && !::testing::Test::HasFailure(); ++i) {
            step();
            ASSERT_EQ(q.size(), ref.size());
            if (i % 4096 == 0) {
                ASSERT_EQ(q.linkedEntries(), q.size());
            }
        }
        while (!ref.empty() && !::testing::Test::HasFailure())
            pop(kMaxTick);
        Tick when = 0;
        EventFn fn;
        EXPECT_FALSE(q.popNext(when, fn));
        EXPECT_EQ(q.linkedEntries(), 0u);
        EXPECT_GT(pops, std::uint64_t(ops) / 5);
        EXPECT_GT(nestedLower, 0u);
        EXPECT_GT(nestedHigher, 0u);
        EXPECT_GT(pastSchedules, 0u);
        EXPECT_GT(peekThenSchedule, 0u);
        EXPECT_GT(clears, 0u);
    }

  private:
    using Key = std::tuple<Tick, std::uint32_t, std::uint64_t>;

    struct Info
    {
        EventHandle handle;
        Tick when;
        std::uint32_t band;
        std::uint32_t livePos;
    };

    EventQueue q;
    std::set<Key> ref;
    std::vector<Info> info;             ///< by id
    std::vector<std::uint64_t> live;    ///< ids of pending events
    std::vector<EventHandle> retired;   ///< ring of dead handles
    std::size_t retiredNext = 0;
    std::mt19937_64 rng;
    Tick now = 0;
    std::uint64_t expectFire = ~0ull;
    std::uint64_t pops = 0;
    std::uint64_t nestedLower = 0;
    std::uint64_t nestedHigher = 0;
    std::uint64_t pastSchedules = 0;
    std::uint64_t peekThenSchedule = 0;
    std::uint64_t clears = 0;

    std::uint64_t pick(std::uint64_t n) { return rng() % n; }

    std::uint32_t
    randomBand()
    {
        switch (pick(8)) {
          case 0:
            return 1;
          case 1:
            return 2 + static_cast<std::uint32_t>(pick(64)); // 2 + node
          case 2:
            return kTopBand;
          default:
            return 0;
        }
    }

    /** A delay mix from same-tick through fig06's 64 ns - 16 us to
     *  far-future ticks, so every bucket sees traffic. */
    Tick
    randomDelay()
    {
        switch (pick(10)) {
          case 0:
            return 0;
          case 1:
            return pick(4);
          case 2:
            return Tick(1) << pick(41);
          case 3:
            return pick(Tick(1) << 40);
          default:
            return 64 + pick(16000);
        }
    }

    void
    schedule(Tick when, std::uint32_t band)
    {
        const std::uint64_t id = info.size();
        EventHandle h = q.schedule(
            when, [this, id] { onFire(id); }, band);
        info.push_back(Info{h, when, band,
                            static_cast<std::uint32_t>(live.size())});
        live.push_back(id);
        ref.emplace(when, band, id);
    }

    /** Drop @p id from the live list and remember its dead handle. */
    void
    retire(std::uint64_t id)
    {
        const std::uint32_t pos = info[id].livePos;
        const std::uint64_t last = live.back();
        live[pos] = last;
        info[last].livePos = pos;
        live.pop_back();
        if (retired.size() < 4096)
            retired.push_back(info[id].handle);
        else
            retired[retiredNext++ % retired.size()] = info[id].handle;
    }

    void
    onFire(std::uint64_t id)
    {
        ASSERT_EQ(id, expectFire);
        expectFire = ~0ull;
        // Schedule at the running tick, below or above the running
        // event's band: a lower band must run before every higher band
        // still due at this tick.
        if (pick(8) != 0)
            return;
        const std::uint32_t band = info[id].band;
        if (pick(2) == 0 && band > 0) {
            schedule(now, band - 1 - std::uint32_t(pick(band)));
            ++nestedLower;
        } else if (band < kTopBand) {
            schedule(now, band + 1 +
                              std::uint32_t(pick(kTopBand - band)));
            ++nestedHigher;
        }
    }

    /** Pop through popNextIfBefore(until); the reference decides
     *  whether anything is due. */
    void
    pop(Tick until)
    {
        Tick when = 0;
        EventFn fn;
        const bool due = !ref.empty() && std::get<0>(*ref.begin()) <= until;
        const bool got = until == kMaxTick && pick(2) == 0
                             ? q.popNext(when, fn)
                             : q.popNextIfBefore(until, when, fn);
        ASSERT_EQ(got, due);
        if (!got)
            return;
        const Key top = *ref.begin();
        ref.erase(ref.begin());
        ASSERT_EQ(when, std::get<0>(top));
        const std::uint64_t id = std::get<2>(top);
        retire(id);
        now = when;
        ++pops;
        expectFire = id;
        fn();
        ASSERT_EQ(expectFire, ~0ull) << "popped the wrong closure";
    }

    void
    step()
    {
        const std::uint64_t op = pick(1000);
        // Keep the population between a few and a few thousand.
        if (op < 400 && live.size() > 3000) {
            pop(kMaxTick);
        } else if (op < 380) {
            schedule(now + randomDelay(), randomBand());
        } else if (op < 400) {
            // Before the last popped tick: only the bare queue allows
            // it, and it must still pop in key order.
            schedule(now - pick(now + 1), randomBand());
            ++pastSchedules;
        } else if (op < 500) {
            if (live.empty())
                return;
            const std::uint64_t id = live[pick(live.size())];
            ASSERT_TRUE(q.cancel(info[id].handle));
            ASSERT_FALSE(q.pending(info[id].handle));
            ref.erase(Key{info[id].when, info[id].band, id});
            retire(id);
        } else if (op < 550) {
            if (live.empty())
                return;
            const std::uint64_t id = live[pick(live.size())];
            EventFn fn;
            ASSERT_TRUE(q.reclaim(info[id].handle, fn));
            ref.erase(Key{info[id].when, info[id].band, id});
            retire(id);
            // The closure taken back is the event's own.
            expectFire = id;
            fn();
            ASSERT_EQ(expectFire, ~0ull);
        } else if (op < 600) {
            // Fired, cancelled and recycled handles stay dead.
            if (retired.empty())
                return;
            const EventHandle h = retired[pick(retired.size())];
            EventFn fn;
            ASSERT_FALSE(q.pending(h));
            ASSERT_FALSE(q.cancel(h));
            ASSERT_FALSE(q.reclaim(h, fn));
            ASSERT_FALSE(fn);
        } else if (op < 650) {
            // A refused pop is a peek; a schedule between the bound
            // and the next event must still come out first.
            const Tick next =
                ref.empty() ? kMaxTick : std::get<0>(*ref.begin());
            ASSERT_EQ(q.nextTime(), next);
            if (ref.empty() || next <= now + 1)
                return;
            const Tick until = now + pick(next - now - 1);
            pop(until);
            schedule(until + pick(next - until), randomBand());
            ++peekThenSchedule;
        } else if (op < 651 && pick(40) == 0) {
            q.clear();
            for (const Key &k : ref)
                retire(std::get<2>(k));
            ref.clear();
            ASSERT_EQ(q.size(), 0u);
            ASSERT_EQ(q.linkedEntries(), 0u);
            ASSERT_EQ(q.nextTime(), kMaxTick);
            ++clears;
        } else {
            // Mostly unbounded; sometimes a bound ahead, and sometimes
            // one behind the last popped tick (Simulator::run() with a
            // bound in the past pops nothing).
            const std::uint64_t kind = pick(8);
            pop(kind < 2 ? now + randomDelay()
                : kind == 2 ? now - pick(now + 1)
                            : kMaxTick);
        }
    }
};

TEST(EventQueueDiffTest, MillionOpsMatchReferenceSet)
{
    for (std::uint64_t seed : {1ull, 17ull, 1009ull}) {
        SCOPED_TRACE(seed);
        DiffHarness h(seed);
        h.run(400000);
    }
}

TEST(EventQueueDiffTest, CancelledTimeoutsLeaveNoEntries)
{
    // The fault-plan driver shape: each of 120 commands in flight arms
    // a 10 ms timeout and cancels it when the command completes a few
    // microseconds later. A lazily cancelled queue would hold every
    // dead timeout until its tick came up.
    constexpr int kCommands = 120;
    constexpr Tick kTimeout = 10'000'000;
    EventQueue q;
    std::mt19937_64 rng(7);
    std::vector<EventHandle> timeout(kCommands);
    Tick now = 0;
    std::uint64_t completions = 0;
    std::uint64_t timeouts = 0;
    std::function<void(int)> issue = [&](int cmd) {
        timeout[cmd] = q.schedule(now + kTimeout, [&] { ++timeouts; });
        q.schedule(now + 64 + rng() % 16000, [&, cmd] {
            ++completions;
            EXPECT_TRUE(q.cancel(timeout[cmd]));
            issue(cmd);
        });
    };
    for (int c = 0; c < kCommands; ++c)
        issue(c);
    while (completions < 200000) {
        ASSERT_TRUE(q.runNext(now));
        ASSERT_EQ(q.size(), 2u * kCommands);
        if (completions % 1000 == 0) {
            ASSERT_EQ(q.linkedEntries(), q.size());
        }
    }
    EXPECT_EQ(timeouts, 0u);
    EXPECT_EQ(q.linkedEntries(), 2u * kCommands);
}

TEST(EventQueueDiffTest, MillionEventSameTickCohortIsFifo)
{
    constexpr std::uint32_t kCohort = 1000000;
    // Scheduled ahead (relinked into bucket 0 at the pop) and at the
    // base itself (linked there directly).
    for (Tick at : {Tick(123456), Tick(0)}) {
        SCOPED_TRACE(at);
        EventQueue q;
        std::vector<std::uint32_t> order;
        order.reserve(kCohort);
        for (std::uint32_t i = 0; i < kCohort; ++i)
            q.schedule(at, [&order, i] { order.push_back(i); });
        Tick when = 0;
        EventFn fn;
        while (q.popNext(when, fn)) {
            ASSERT_EQ(when, at);
            fn();
        }
        ASSERT_EQ(order.size(), kCohort);
        for (std::uint32_t i = 0; i < kCohort; ++i)
            ASSERT_EQ(order[i], i);
    }
}

TEST(EventQueueDiffTest, TwoBandInterleavedCohortIsBandThenFifo)
{
    constexpr std::uint32_t kCohort = 100000;
    for (Tick at : {Tick(98765), Tick(0)}) {
        SCOPED_TRACE(at);
        EventQueue q;
        std::vector<std::uint32_t> order;
        order.reserve(kCohort);
        // Alternate the high band first, so every low-band event
        // belongs ahead of all the high-band ones already queued.
        for (std::uint32_t i = 0; i < kCohort; ++i)
            q.schedule(
                at, [&order, i] { order.push_back(i); }, (i + 1) % 2);
        Tick when = 0;
        EventFn fn;
        while (q.popNext(when, fn)) {
            ASSERT_EQ(when, at);
            fn();
        }
        ASSERT_EQ(order.size(), kCohort);
        for (std::uint32_t k = 0; k < kCohort / 2; ++k) {
            ASSERT_EQ(order[k], 2 * k + 1);              // band 0
            ASSERT_EQ(order[kCohort / 2 + k], 2 * k);    // band 1
        }
    }
}

TEST(EventQueueDiffTest, LowerBandScheduledDuringCohortRunsNext)
{
    // Every event of a band-1 cohort schedules a band-0 event at the
    // running tick, which must run before the rest of the cohort.
    constexpr std::uint32_t kCohort = 100000;
    EventQueue q;
    std::vector<std::uint32_t> order;
    order.reserve(2 * kCohort);
    for (std::uint32_t i = 0; i < kCohort; ++i)
        q.schedule(
            50,
            [&q, &order, i] {
                order.push_back(i);
                q.schedule(50, [&order, i] {
                    order.push_back(kCohort + i);
                });
            },
            1);
    Tick when = 0;
    while (q.runNext(when))
        ASSERT_EQ(when, 50u);
    ASSERT_EQ(order.size(), 2u * kCohort);
    for (std::uint32_t i = 0; i < kCohort; ++i) {
        ASSERT_EQ(order[2 * i], i);
        ASSERT_EQ(order[2 * i + 1], kCohort + i);
    }
}

} // namespace

/**
 * @file
 * The hot path's allocation-free containers: RingQueue keeps FIFO
 * order across wrap-around and growth; SlotPool recycles released
 * slots and never hands out one that is still held.
 */

#include <gtest/gtest.h>

#include <set>
#include <vector>

#include "sim/event_fn.hh"
#include "sim/ring_queue.hh"
#include "sim/slot_pool.hh"

using afa::sim::EventFn;
using afa::sim::RingQueue;
using afa::sim::SlotPool;

namespace {

TEST(RingQueueTest, FifoAcrossWrapAndGrowth)
{
    RingQueue<int> q;
    int next_in = 0;
    int next_out = 0;
    // Turn the ring over several times at depth 5, then grow it to 40
    // while its head sits mid-buffer, then drain.
    for (int round = 0; round < 50; ++round) {
        while (q.size() < 5)
            q.push_back(next_in++);
        for (int k = 0; k < 3; ++k) {
            ASSERT_EQ(q.front(), next_out++);
            q.pop_front();
        }
    }
    while (q.size() < 40)
        q.push_back(next_in++);
    for (std::size_t i = 0; i < q.size(); ++i)
        EXPECT_EQ(q[i], next_out + static_cast<int>(i));
    EXPECT_EQ(q.back(), next_in - 1);
    q.pop_back();
    while (!q.empty()) {
        ASSERT_EQ(q.front(), next_out++);
        q.pop_front();
    }
    EXPECT_EQ(next_out, next_in - 1);
}

TEST(RingQueueTest, PopReleasesTheElement)
{
    // A popped slot is reset, so a moved-from EventFn's target is
    // destroyed at pop time, not when the slot is next overwritten.
    RingQueue<EventFn> q;
    int fired = 0;
    q.push_back([&fired] { ++fired; });
    q.push_back([&fired] { fired += 10; });
    EventFn first = std::move(q.front());
    q.pop_front();
    first();
    EXPECT_EQ(fired, 1);
    q.clear();
    EXPECT_TRUE(q.empty());
    q.push_back([&fired] { fired += 100; });
    q.front()();
    EXPECT_EQ(fired, 101);
}

TEST(SlotPoolTest, RecyclesReleasedSlots)
{
    SlotPool<int> pool;
    const std::uint32_t a = pool.acquire();
    const std::uint32_t b = pool.acquire();
    EXPECT_NE(a, b);
    pool[a] = 7;
    pool.release(a);
    EXPECT_EQ(pool.acquire(), a);
    EXPECT_EQ(pool[a], 7); // acquire() leaves the old value
}

TEST(SlotPoolTest, SettlesAtPeakInFlightAndSkipsHeldSlots)
{
    // The device ships and SQEs are parked and released in FIFO
    // order: the pool settles at the peak number in flight.
    SlotPool<int> pool;
    std::vector<std::uint32_t> inflight;
    std::set<std::uint32_t> seen;
    for (int i = 0; i < 100; ++i) {
        const std::uint32_t slot = pool.acquire();
        pool[slot] = i;
        inflight.push_back(slot);
        seen.insert(slot);
        if (inflight.size() == 3) {
            EXPECT_EQ(pool[inflight.front()], i - 2);
            pool.release(inflight.front());
            inflight.erase(inflight.begin());
        }
    }
    EXPECT_EQ(seen.size(), 3u);
    // A slot that is never released is never handed out again.
    for (int i = 0; i < 20; ++i) {
        const std::uint32_t slot = pool.acquire();
        EXPECT_NE(slot, inflight.front());
        EXPECT_NE(slot, inflight.back());
        pool.release(slot);
    }
}

} // namespace

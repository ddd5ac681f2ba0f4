/**
 * @file
 * Parking for per-IO state that an event closure would otherwise
 * carry.
 *
 * An EventFn stores 32 bytes inline; a closure that captures a
 * std::function, an EventFn or a full NVMe command does not fit and
 * costs a heap allocation per event. The hot path instead parks the
 * state in a pool and captures only the pool index or slot pointer.
 * Both pools recycle their slots, so once a run reaches its peak
 * concurrency they never allocate again.
 *
 *  - SlotPool: single-threaded, indices, LIFO free list. For state
 *    whose producer and consumer run on the same shard.
 *  - HandoffPool: one producer shard, one consumer shard, stable
 *    slot addresses and an atomic busy flag per slot. For state
 *    that an event carries across shards (see Simulator::
 *    scheduleOnShard()).
 */

#ifndef AFA_SIM_SLOT_POOL_HH
#define AFA_SIM_SLOT_POOL_HH

#include <atomic>
#include <cstddef>
#include <cstdint>
#include <memory>
#include <utility>
#include <vector>

namespace afa::sim {

/** Index-addressed slots with a free list (single-threaded). */
template <typename T>
class SlotPool
{
  public:
    /** A free slot's index; its value is whatever release() left. */
    std::uint32_t
    acquire()
    {
        if (!freeList.empty()) {
            std::uint32_t i = freeList.back();
            freeList.pop_back();
            return i;
        }
        slots.emplace_back();
        // Room for every slot on the free list: release() never
        // allocates.
        freeList.reserve(slots.capacity());
        return static_cast<std::uint32_t>(slots.size() - 1);
    }

    /** Return slot @p i to the pool. */
    void release(std::uint32_t i) { freeList.push_back(i); }

    T &operator[](std::uint32_t i) { return slots[i]; }
    const T &operator[](std::uint32_t i) const { return slots[i]; }

  private:
    std::vector<T> slots;
    std::vector<std::uint32_t> freeList;
};

/**
 * Slots handed from a producer to a consumer that may run on another
 * thread. The producer acquire()s a slot, fills it and posts an event
 * carrying the slot pointer; the consumer take()s the value, which
 * frees the slot. The post itself orders the fill before the take
 * (same-thread queue or the simulator's window barrier); the busy
 * flag orders the take before the producer's next reuse.
 *
 * Slots are visited in rotation, so when values are taken in the
 * order they were parked (the fabric and the shipping hop deliver in
 * FIFO order per device) the pool stays at the peak number in
 * flight. A slot still busy when its turn comes is skipped by
 * inserting a fresh one in front of it, so out-of-order or never
 * taken values cost memory, never correctness.
 */
template <typename T>
class HandoffPool
{
  public:
    struct Slot
    {
        std::atomic<bool> busy{false};
        T value{};
    };

    /** Producer side: a free slot, now busy. */
    Slot *
    acquire()
    {
        if (ring.empty() ||
            ring[next]->busy.load(std::memory_order_acquire))
            ring.insert(ring.begin() + static_cast<std::ptrdiff_t>(next),
                        std::make_unique<Slot>());
        Slot *slot = ring[next].get();
        next = (next + 1) % ring.size();
        slot->busy.store(true, std::memory_order_relaxed);
        return slot;
    }

    /** Consumer side: move the value out and free the slot. */
    static T
    take(Slot *slot)
    {
        T value = std::move(slot->value);
        slot->busy.store(false, std::memory_order_release);
        return value;
    }

  private:
    std::vector<std::unique_ptr<Slot>> ring;
    std::size_t next = 0; ///< the least recently acquired slot
};

} // namespace afa::sim

#endif // AFA_SIM_SLOT_POOL_HH

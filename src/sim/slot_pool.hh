/**
 * @file
 * Parking for per-IO state that an event closure would otherwise
 * carry.
 *
 * An EventFn stores 32 bytes inline; a closure that captures a
 * std::function, an EventFn or a full NVMe command does not fit and
 * costs a heap allocation per event. The hot path instead parks the
 * state in a pool and captures only the pool index. The pool
 * recycles its slots, so once a run reaches its peak concurrency it
 * never allocates again.
 */

#ifndef AFA_SIM_SLOT_POOL_HH
#define AFA_SIM_SLOT_POOL_HH

#include <cstddef>
#include <cstdint>
#include <vector>

namespace afa::sim {

/** Index-addressed slots with a LIFO free list. */
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

} // namespace afa::sim

#endif // AFA_SIM_SLOT_POOL_HH

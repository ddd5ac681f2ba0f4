/**
 * @file
 * A FIFO over a growable power-of-two ring: the hot-path replacement
 * for std::deque.
 *
 * std::deque allocates and frees a block every few elements as a
 * queue turns over, even when its length stays bounded. RingQueue
 * keeps one buffer and reuses it, so a queue whose depth is bounded
 * reaches its high-water capacity once and never allocates again.
 * Popped slots are reset to a default-constructed T, so a moved-from
 * element (an EventFn, say) releases its resources at pop time, as it
 * would in a deque.
 */

#ifndef AFA_SIM_RING_QUEUE_HH
#define AFA_SIM_RING_QUEUE_HH

#include <cassert>
#include <cstddef>
#include <utility>
#include <vector>

namespace afa::sim {

/** FIFO with deque-style ends; T must be default-constructible and
 *  move-assignable. */
template <typename T>
class RingQueue
{
  public:
    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    /** Element @p i counted from the front. */
    T &
    operator[](std::size_t i)
    {
        assert(i < count);
        return buf[(head + i) & (buf.size() - 1)];
    }
    const T &
    operator[](std::size_t i) const
    {
        assert(i < count);
        return buf[(head + i) & (buf.size() - 1)];
    }

    T &front() { return (*this)[0]; }
    T &back() { return (*this)[count - 1]; }

    void
    push_back(T value)
    {
        if (count == buf.size())
            grow();
        buf[(head + count) & (buf.size() - 1)] = std::move(value);
        ++count;
    }

    void
    pop_front()
    {
        assert(count > 0);
        buf[head] = T{};
        head = (head + 1) & (buf.size() - 1);
        --count;
    }

    void
    pop_back()
    {
        assert(count > 0);
        back() = T{};
        --count;
    }

    void
    clear()
    {
        while (count > 0)
            pop_back();
        head = 0;
    }

  private:
    void
    grow()
    {
        std::vector<T> next(buf.empty() ? 8 : 2 * buf.size());
        for (std::size_t i = 0; i < count; ++i)
            next[i] = std::move((*this)[i]);
        buf.swap(next);
        head = 0;
    }

    std::vector<T> buf; ///< capacity is zero or a power of two
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace afa::sim

#endif // AFA_SIM_RING_QUEUE_HH

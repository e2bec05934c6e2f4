/**
 * @file
 * Fixed-capacity double-ended ring buffer.
 *
 * The arbiter's priority classes and the baseline prefetchers'
 * recent-issue FIFO are queues whose length is bounded by hardware
 * geometry. std::deque allocates a chunk every few hundred bytes of
 * churn; this ring sizes its storage once at construction and never
 * allocates afterwards. Pushing onto a full ring is a caller bug
 * (checked under CDP_ENABLE_CHECKS).
 */

#ifndef CDP_COMMON_RING_HH
#define CDP_COMMON_RING_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <iterator>
#include <type_traits>
#include <vector>

#include "check/check.hh"

namespace cdp
{

template <typename T>
class Ring
{
  public:
    /** Iterator in queue order (front to back). */
    template <typename R, typename E>
    class Iter
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = std::remove_const_t<E>;
        using difference_type = std::ptrdiff_t;
        using pointer = E *;
        using reference = E &;

        Iter() = default;
        Iter(R *ring, std::size_t i) : ring(ring), i(i) {}
        E &operator*() const { return (*ring)[i]; }
        E *operator->() const { return &(*ring)[i]; }
        Iter &operator++()
        {
            ++i;
            return *this;
        }
        Iter operator++(int)
        {
            Iter old = *this;
            ++i;
            return old;
        }
        bool operator==(const Iter &o) const { return i == o.i; }

      private:
        R *ring = nullptr;
        std::size_t i = 0;
    };

    explicit Ring(std::size_t capacity = 0)
        : cap(capacity), buf(std::bit_ceil(std::max<std::size_t>(
                             capacity, 1))),
          mask(buf.size() - 1)
    {
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    bool full() const { return count >= cap; }
    std::size_t capacity() const { return cap; }

    /** Element @p i positions behind the front. */
    T &operator[](std::size_t i) { return buf[(head + i) & mask]; }
    const T &operator[](std::size_t i) const
    {
        return buf[(head + i) & mask];
    }

    T &front() { return (*this)[0]; }
    const T &front() const { return (*this)[0]; }
    T &back() { return (*this)[count - 1]; }
    const T &back() const { return (*this)[count - 1]; }

    void push_back(const T &v)
    {
        CDP_CHECK(!full());
        buf[(head + count) & mask] = v;
        ++count;
    }

    void push_front(const T &v)
    {
        CDP_CHECK(!full());
        head = (head - 1) & mask;
        buf[head] = v;
        ++count;
    }

    void pop_front()
    {
        CDP_CHECK(!empty());
        head = (head + 1) & mask;
        --count;
    }

    void pop_back()
    {
        CDP_CHECK(!empty());
        --count;
    }

    /** Remove element @p i, keeping the order of the others. */
    void erase(std::size_t i)
    {
        CDP_CHECK(i < count);
        for (; i + 1 < count; ++i)
            (*this)[i] = (*this)[i + 1];
        --count;
    }

    void clear()
    {
        head = 0;
        count = 0;
    }

    Iter<Ring, T> begin() { return {this, 0}; }
    Iter<Ring, T> end() { return {this, count}; }
    Iter<const Ring, const T> begin() const { return {this, 0}; }
    Iter<const Ring, const T> end() const { return {this, count}; }

  private:
    std::size_t cap;
    std::vector<T> buf;
    std::size_t mask;
    std::size_t head = 0;
    std::size_t count = 0;
};

} // namespace cdp

#endif // CDP_COMMON_RING_HH

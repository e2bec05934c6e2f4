/**
 * @file
 * Fixed-capacity vector with inline storage.
 *
 * For per-call results whose size has a small compile-time bound (the
 * words of one cache line, the levels of one page walk): the result
 * lives on the caller's stack, so producing it never allocates.
 */

#ifndef CDP_COMMON_FIXED_VEC_HH
#define CDP_COMMON_FIXED_VEC_HH

#include <array>
#include <cstddef>

#include "check/check.hh"

namespace cdp
{

template <typename T, std::size_t N>
class FixedVec
{
  public:
    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }

    void push_back(const T &v)
    {
        CDP_CHECK(count < N);
        items[count++] = v;
    }

    T &operator[](std::size_t i) { return items[i]; }
    const T &operator[](std::size_t i) const { return items[i]; }

    T *begin() { return items.data(); }
    T *end() { return items.data() + count; }
    const T *begin() const { return items.data(); }
    const T *end() const { return items.data() + count; }

  private:
    std::array<T, N> items{};
    std::size_t count = 0;
};

} // namespace cdp

#endif // CDP_COMMON_FIXED_VEC_HH

/**
 * @file
 * Fixed-capacity, open-addressed hash table keyed by Addr.
 *
 * The per-miss bookkeeping of the memory system (in-flight MSHR
 * entries, arbiter residency counts, recently issued prefetch lines)
 * is a small keyed set whose size is bounded by hardware geometry.
 * std::unordered_map pays a heap node per insert and a prime modulo
 * per probe for that; this table sizes its slot array once at
 * construction and never allocates afterwards.
 *
 * Linear probing over a power-of-two slot array, Fibonacci hashing
 * (keys are line or page addresses, whose low bits are constant), and
 * backward-shift deletion, so there are no tombstones and a probe
 * chain always ends at the first empty slot. The slot array holds at
 * least 2 x capacity slots (and never fewer than 4), so a table at
 * capacity is at most half full. Inserts past capacity still succeed
 * while a free slot remains — the invariant checker's fault-injection
 * tests rely on that to plant a leaked entry — but one slot is always
 * kept empty so every probe terminates.
 *
 * Iteration visits slots in hash order, which depends on the keys
 * present and on insertion history. It must never reach output
 * (dumps, checkpoints, traces) unsorted; tools/cdplint's
 * unordered-output rule treats AddrTable like std::unordered_map.
 */

#ifndef CDP_COMMON_ADDR_TABLE_HH
#define CDP_COMMON_ADDR_TABLE_HH

#include <algorithm>
#include <bit>
#include <cstddef>
#include <cstdint>
#include <iterator>
#include <type_traits>
#include <vector>

#include "check/check.hh"
#include "common/types.hh"

namespace cdp
{

/** Value type of an AddrTable used as a plain set. */
struct AddrSetTag
{
};

template <typename V>
class AddrTable
{
  public:
    /** One slot; only slots with @c used set hold an entry. */
    struct Slot
    {
        Addr key = 0;
        bool used = false;
        [[no_unique_address]] V value{};
    };

    /** Iterator over the occupied slots, in slot (hash) order. */
    template <typename S>
    class Iter
    {
      public:
        using iterator_category = std::forward_iterator_tag;
        using value_type = std::remove_const_t<S>;
        using difference_type = std::ptrdiff_t;
        using pointer = S *;
        using reference = S &;

        Iter() = default;
        Iter(S *p, S *end) : p(p), end(end) { skip(); }
        S &operator*() const { return *p; }
        S *operator->() const { return p; }
        Iter &operator++()
        {
            ++p;
            skip();
            return *this;
        }
        Iter operator++(int)
        {
            Iter old = *this;
            ++*this;
            return old;
        }
        bool operator==(const Iter &o) const { return p == o.p; }

      private:
        void skip()
        {
            while (p != end && !p->used)
                ++p;
        }
        S *p = nullptr;
        S *end = nullptr;
    };

    explicit AddrTable(std::size_t capacity = 0)
        : cap(capacity),
          slots(std::max<std::size_t>(4, std::bit_ceil(2 * capacity))),
          mask(slots.size() - 1),
          shift(32 - std::countr_zero(slots.size()))
    {
    }

    std::size_t size() const { return count; }
    bool empty() const { return count == 0; }
    /** Entries the table is dimensioned for (load factor <= 1/2). */
    std::size_t capacity() const { return cap; }
    std::size_t slotCount() const { return slots.size(); }

    /** The slot @p key's probe run starts at. */
    std::size_t homeSlot(Addr key) const
    {
        // High bits of the product: low key bits are often all zero.
        return static_cast<std::uint32_t>(key * 0x9e3779b1u) >> shift;
    }

    V *find(Addr key)
    {
        Slot &s = slots[probe(key)];
        return s.used ? &s.value : nullptr;
    }

    const V *find(Addr key) const
    {
        const Slot &s = slots[probe(key)];
        return s.used ? &s.value : nullptr;
    }

    bool contains(Addr key) const { return slots[probe(key)].used; }

    /** Insert @p key, which must be absent; returns its value. */
    V &insert(Addr key, const V &value = V{})
    {
        const std::size_t i = probe(key);
        CDP_CHECK(!slots[i].used);
        return fill(i, key, value);
    }

    /**
     * Insert @p key with @p value unless it is present (one probe);
     * returns whether it was inserted.
     */
    bool insertIfAbsent(Addr key, const V &value = V{})
    {
        const std::size_t i = probe(key);
        if (slots[i].used)
            return false;
        fill(i, key, value);
        return true;
    }

    /** Remove @p key; returns false when it was absent. */
    bool erase(Addr key)
    {
        std::size_t i = probe(key);
        if (!slots[i].used)
            return false;
        // Backward-shift deletion: pull every later member of the
        // probe run whose home lies cyclically at or before the hole
        // into it, so lookups never need tombstones.
        for (std::size_t j = (i + 1) & mask; slots[j].used;
             j = (j + 1) & mask) {
            const std::size_t home = homeSlot(slots[j].key);
            if (((j - home) & mask) >= ((j - i) & mask)) {
                slots[i] = slots[j];
                i = j;
            }
        }
        slots[i].used = false;
        --count;
        return true;
    }

    void clear()
    {
        for (Slot &s : slots)
            s.used = false;
        count = 0;
    }

    Iter<Slot> begin() { return {slots.data(), slots.data() + slots.size()}; }
    Iter<Slot> end()
    {
        return {slots.data() + slots.size(), slots.data() + slots.size()};
    }
    Iter<const Slot> begin() const
    {
        return {slots.data(), slots.data() + slots.size()};
    }
    Iter<const Slot> end() const
    {
        return {slots.data() + slots.size(), slots.data() + slots.size()};
    }

  private:
    /** Slot holding @p key, or the empty slot ending its probe run. */
    std::size_t probe(Addr key) const
    {
        std::size_t i = homeSlot(key);
        while (slots[i].used && slots[i].key != key)
            i = (i + 1) & mask;
        return i;
    }

    V &fill(std::size_t i, Addr key, const V &value)
    {
        CDP_CHECK(count + 1 < slots.size());
        slots[i].key = key;
        slots[i].used = true;
        slots[i].value = value;
        ++count;
        return slots[i].value;
    }

    std::size_t cap;
    std::size_t count = 0;
    std::vector<Slot> slots;
    std::size_t mask;
    unsigned shift;
};

/** A fixed-capacity set of addresses. */
using AddrSet = AddrTable<AddrSetTag>;

} // namespace cdp

#endif // CDP_COMMON_ADDR_TABLE_HH

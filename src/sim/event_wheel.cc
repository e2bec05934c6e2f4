#include "sim/event_wheel.hh"

#include <algorithm>
#include <stdexcept>

namespace cdp
{

EventWheel::EventWheel() : slots(slotCount)
{
}

void
EventWheel::place(Event e)
{
    if (inWindow(e.when)) {
        const std::size_t s = static_cast<std::size_t>(e.when & slotMask);
        slots[s].push_back(e);
        occupied[s >> 6] |= std::uint64_t{1} << (s & 63);
    } else {
        // After every event of the same or an earlier cycle: FIFO
        // within a cycle, as seq only grows.
        const auto at = std::upper_bound(
            overflow.begin(), overflow.end(), e.when,
            [](Cycle when, const Event &o) { return when < o.when; });
        overflow.insert(at, e);
    }
}

void
EventWheel::schedule(Cycle when, Addr payload)
{
    if (when < base)
        throw std::logic_error(
            "EventWheel: scheduling into the past (when < base)");
    Event e;
    e.when = when;
    e.seq = nextSeq++;
    e.payload = payload;
    if (count == 0 || when < minDue)
        minDue = when;
    place(e);
    ++count;
}

void
EventWheel::recomputeMin()
{
    // Every in-window event lies in [base, base + slotCount) and its
    // slot is its cycle mod slotCount, so walking the ring from base's
    // slot visits in-window cycles in increasing order: the first
    // occupied slot holds the earliest in-window deadline.
    Cycle best = ~Cycle{0};
    bool found = false;
    const std::size_t start = static_cast<std::size_t>(base & slotMask);
    for (std::size_t k = 0; k <= bitmapWords && !found; ++k) {
        const std::size_t w = ((start >> 6) + k) % bitmapWords;
        std::uint64_t bits = occupied[w];
        if (k == 0)
            bits &= ~std::uint64_t{0} << (start & 63);
        if (bits) {
            const unsigned b =
                static_cast<unsigned>(__builtin_ctzll(bits));
            best = slots[(w << 6) | b].front().when;
            found = true;
        }
    }
    if (!overflow.empty() && (!found || overflow.front().when < best)) {
        best = overflow.front().when;
        found = true;
    }
    minDue = best;
    // Turn the wheel: every pending event is >= the new minimum, so
    // it is a valid base, and advancing it may bring overflow events
    // inside the horizon.
    base = best;
    auto in = overflow.begin();
    while (in != overflow.end() && inWindow(in->when))
        place(*in++);
    overflow.erase(overflow.begin(), in);
}

std::optional<EventWheel::Event>
EventWheel::popDue(Cycle now)
{
    if (count == 0 || minDue > now)
        return std::nullopt;

    Event e;
    const std::size_t s = static_cast<std::size_t>(minDue & slotMask);
    std::vector<Event> &slot = slots[s];
    if (!slot.empty() && slot.front().when == minDue) {
        e = slot.front();
        slot.erase(slot.begin());
        if (slot.empty())
            occupied[s >> 6] &= ~(std::uint64_t{1} << (s & 63));
    } else {
        // The minimum still sits in overflow: possible only when the
        // whole ring window between base and minDue is empty.
        e = overflow.front();
        overflow.erase(overflow.begin());
    }
    --count;

    if (count == 0)
        base = std::max(base, e.when);
    else if ((slots[s].empty() || slots[s].front().when != minDue) &&
             (overflow.empty() || overflow.front().when != minDue))
        recomputeMin();
    return e;
}

std::vector<EventWheel::Event>
EventWheel::sorted() const
{
    std::vector<Event> out;
    out.reserve(count);
    for (std::size_t w = 0; w < bitmapWords; ++w) {
        std::uint64_t bits = occupied[w];
        while (bits) {
            const unsigned b =
                static_cast<unsigned>(__builtin_ctzll(bits));
            bits &= bits - 1;
            const std::vector<Event> &slot = slots[(w << 6) | b];
            out.insert(out.end(), slot.begin(), slot.end());
        }
    }
    out.insert(out.end(), overflow.begin(), overflow.end());
    std::sort(out.begin(), out.end(),
              [](const Event &a, const Event &b) {
                  return a.when != b.when ? a.when < b.when
                                          : a.seq < b.seq;
              });
    return out;
}

} // namespace cdp

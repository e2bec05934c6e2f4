/**
 * @file
 * Deterministic timing-wheel scheduler for the memory system's
 * completion events.
 *
 * The wheel replaces the pending-fill priority queue with a structure
 * that can answer "when is the next event due?" in O(1) — the hook
 * the idle-skipping simulation loop hangs off (DESIGN.md §12). It is
 * a classic single-level wheel: a power-of-two ring of slots covering
 * the near future, an ordered overflow list for events beyond the
 * horizon, and an occupancy bitmap so recomputing the earliest
 * deadline scans 64 slots per word instead of walking a heap. Every
 * container keeps its capacity once grown, so a warmed-up wheel
 * schedules and pops without allocating.
 *
 * Determinism contract:
 *  - events at distinct cycles pop in cycle order;
 *  - events at the same cycle pop in schedule (FIFO) order, tracked
 *    by a monotonic sequence number — never in container order;
 *  - sorted() returns the pending set keyed by (cycle, seq), so
 *    audits and dumps iterate in a reproducible order.
 *
 * In the memory system ties never actually occur: every completion
 * is minted by the single front-side bus, whose busy-window advances
 * by at least the per-line occupancy (>= 1 cycle) per transfer, so
 * completion cycles are strictly increasing. The FIFO rule makes the
 * wheel's order provably identical to the old priority queue even
 * without that guarantee.
 */

#ifndef CDP_SIM_EVENT_WHEEL_HH
#define CDP_SIM_EVENT_WHEEL_HH

#include <array>
#include <cstdint>
#include <optional>
#include <vector>

#include "common/types.hh"

namespace cdp
{

/**
 * A timing wheel holding (cycle, payload) completion events. The
 * payload is the line-aligned physical address whose fill completes.
 */
class EventWheel
{
  public:
    struct Event
    {
        Cycle when = 0;
        std::uint64_t seq = 0; //!< schedule order; FIFO tie-break
        Addr payload = 0;
    };

    EventWheel();

    /**
     * Schedule @p payload to complete at @p when. @p when must not
     * precede the wheel's base — the highest deadline already
     * drained (the wheel only turns forward); throws
     * std::logic_error otherwise. Scheduling below the current
     * minimum but at or above base is legal: the new event simply
     * becomes the next to pop.
     */
    void schedule(Cycle when, Addr payload);

    bool empty() const { return count == 0; }
    std::size_t size() const { return count; }

    /** Earliest pending completion cycle; requires !empty(). */
    Cycle nextDue() const { return minDue; }

    /**
     * Pop the earliest event if it is due (when <= @p now); FIFO
     * among events sharing a cycle. nullopt when nothing is due.
     */
    std::optional<Event> popDue(Cycle now);

    /** Pending events in (when, seq) order — audits and tests. */
    std::vector<Event> sorted() const;

  private:
    /** log2 of the near-future horizon covered by the slot ring. */
    static constexpr unsigned slotBits = 10;
    static constexpr std::size_t slotCount = std::size_t{1} << slotBits;
    static constexpr Cycle slotMask = slotCount - 1;
    static constexpr std::size_t bitmapWords = slotCount / 64;

    /** Every event in [base, base + slotCount) lives in its slot.
     *  Callers guarantee when >= base (schedule() rejects the past
     *  and every pending event is >= base by invariant). */
    bool inWindow(Cycle when) const
    {
        return cyclesSince(when, base) < slotCount;
    }

    void place(Event e);

    /** Re-derive minDue/base after the previous minimum drained,
     *  then pull newly-in-window overflow events into the ring. */
    void recomputeMin();

    /**
     * One slot holds events of exactly one cycle at a time: two
     * in-window cycles can only share a slot if they differ by a
     * multiple of slotCount, which the window bound excludes.
     */
    std::vector<std::vector<Event>> slots;
    std::array<std::uint64_t, bitmapWords> occupied{};
    /** Events beyond the horizon, sorted by (when, seq). It holds
     *  at most the in-flight fills, so insertion by shifting is
     *  cheap; it only ever grows to its high-water mark. */
    std::vector<Event> overflow;
    Cycle base = 0;   //!< lower bound on every pending event
    Cycle minDue = 0; //!< earliest pending cycle (valid iff count > 0)
    std::size_t count = 0;
    std::uint64_t nextSeq = 0;
};

} // namespace cdp

#endif // CDP_SIM_EVENT_WHEEL_HH

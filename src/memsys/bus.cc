#include "memsys/bus.hh"

#include <algorithm>
#include <stdexcept>

#include "snapshot/ckpt_io.hh"

namespace cdp
{

Bus::Bus(Cycle latency_cycles, Cycle occupancy_cycles, StatGroup *stats,
         const std::string &name)
    : latency(latency_cycles), occupancy(occupancy_cycles),
      transfers(stats ? *stats : dummyGroup, name + ".transfers",
                "line transfers serviced"),
      cyclesBusy(stats ? *stats : dummyGroup, name + ".busy_cycles",
                 "cycles the bus was occupied")
{
    // Tie-freedom of the fill schedule (DESIGN.md §12) needs every
    // transfer to hold the bus for at least one cycle.
    if (occupancy == 0)
        throw std::invalid_argument("mem.bus_occupancy must be >= 1");
}

Cycle
Bus::service(Cycle now)
{
    const Cycle start = std::max(now, busyUntil);
    busyUntil = start + occupancy;
    ++transfers;
    cyclesBusy += occupancy;
    return start + latency;
}

void
Bus::saveState(snap::Writer &w) const
{
    w.u64(latency);
    w.u64(occupancy);
    w.u64(busyUntil);
}

void
Bus::loadState(snap::Reader &r)
{
    r.expectU64(latency, "bus latency");
    r.expectU64(occupancy, "bus occupancy");
    busyUntil = r.u64();
}

} // namespace cdp

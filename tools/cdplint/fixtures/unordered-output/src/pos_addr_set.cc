// Fixture: the AddrSet alias (an AddrTable without a template
// argument list) iterated into a trace-recording call.

#include <cstdint>

#include "common/addr_table.hh"

struct Tracer
{
    void record(std::uint32_t line);
};

struct Recent
{
    cdp::AddrSet lines;
};

void
traceRecent(Tracer &trc, const Recent &r)
{
    for (const auto &slot : r.lines) { // FINDING unordered-output
        trc.record(slot.key);
    }
}

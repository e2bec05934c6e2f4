// Fixture: the MSHR dump shape, draining an open-addressed AddrTable
// in slot order. Slot order is hash order, so two machines holding
// the same in-flight fills could print them differently.

#include <cstdint>
#include <sstream>
#include <string>

#include "common/addr_table.hh"

struct Fill
{
    std::uint64_t completion;
};

std::string
dumpInflight(const cdp::AddrTable<Fill> &inflight)
{
    std::ostringstream os;
    for (const auto &slot : inflight) { // FINDING unordered-output
        os << slot.key << " done@" << slot.value.completion << "\n";
    }
    return os.str();
}

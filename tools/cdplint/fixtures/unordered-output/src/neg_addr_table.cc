// Fixture: the sanctioned AddrTable shapes — a count fold over slot
// order, and a key-sorted snapshot before anything is emitted (the
// in-tree original is check::sortedMshrEntries).

#include <algorithm>
#include <cstdint>
#include <sstream>
#include <string>
#include <vector>

#include "common/addr_table.hh"

struct Fill
{
    bool prefetch;
};

std::size_t
prefetchCount(const cdp::AddrTable<Fill> &inflight)
{
    std::size_t n = 0;
    for (const auto &slot : inflight) {
        n += slot.value.prefetch ? 1 : 0;
    }
    return n;
}

std::string
dumpInflightSorted(const cdp::AddrTable<Fill> &inflight)
{
    std::vector<std::uint32_t> keys;
    for (const auto &slot : inflight) {
        keys.push_back(slot.key);
    }
    std::sort(keys.begin(), keys.end());
    std::ostringstream os;
    for (const std::uint32_t k : keys) {
        os << k << "\n";
    }
    return os.str();
}

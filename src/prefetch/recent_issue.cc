#include "prefetch/recent_issue.hh"

#include <string>

#include "snapshot/ckpt_io.hh"

namespace cdp
{

RecentIssueRing::RecentIssueRing(std::size_t capacity)
    : fifo(capacity), present(capacity)
{
}

void
RecentIssueRing::remember(Addr va)
{
    const Addr line = lineAlign(va);
    if (!present.insertIfAbsent(line))
        return;
    if (fifo.full()) {
        present.erase(fifo.front());
        fifo.pop_front();
    }
    fifo.push_back(line);
}

void
RecentIssueRing::saveState(snap::Writer &w) const
{
    // The FIFO is the source of truth; the set is rebuilt on load.
    w.u64(fifo.size());
    for (const Addr a : fifo)
        w.u32(a);
}

void
RecentIssueRing::loadState(snap::Reader &r, const char *who)
{
    const std::uint64_t n = r.u64();
    if (n > fifo.capacity())
        r.fail(std::string(who) + " recent-issue ring holds " +
               std::to_string(n) + " entries, capacity is " +
               std::to_string(fifo.capacity()));
    fifo.clear();
    present.clear();
    for (std::uint64_t i = 0; i < n; ++i) {
        const Addr a = r.u32();
        if (a != lineAlign(a) || !present.insertIfAbsent(a))
            r.fail(std::string(who) +
                   " recent-issue ring holds a misaligned or repeated "
                   "line");
        fifo.push_back(a);
    }
}

} // namespace cdp

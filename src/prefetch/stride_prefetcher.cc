#include "prefetch/stride_prefetcher.hh"

#include <stdexcept>

#include "snapshot/ckpt_io.hh"

namespace cdp
{

StridePrefetcher::StridePrefetcher(unsigned table_entries, unsigned degree,
                                   unsigned conf_threshold,
                                   StatGroup *stats,
                                   const std::string &name)
    : table(table_entries), degree(degree), confThreshold(conf_threshold),
      observed(stats ? *stats : dummyGroup, name + ".observed",
               "demand misses observed"),
      issued(stats ? *stats : dummyGroup, name + ".issued",
             "stride prefetches issued")
{
    if (table.empty())
        throw std::invalid_argument("stride.entries must be >= 1");
    reservePredictions(degree, "stride.degree");
}

const std::vector<Addr> &
StridePrefetcher::observeMiss(Addr pc, Addr vaddr)
{
    ++observed;
    std::vector<Addr> &out = predictions;
    out.clear();
    Entry &e = table[(pc >> 2) % table.size()];

    if (!e.valid || e.pcTag != pc) {
        e.pcTag = pc;
        e.lastAddr = vaddr;
        e.stride = 0;
        e.confidence = 0;
        e.valid = true;
        return out;
    }

    const auto new_stride = static_cast<std::int32_t>(vaddr - e.lastAddr);
    if (new_stride == 0) {
        // Same address again (e.g. a miss under a miss); no update.
        return out;
    }

    if (new_stride == e.stride) {
        if (e.confidence < 3)
            ++e.confidence;
    } else {
        if (e.confidence > 0) {
            --e.confidence;
        } else {
            e.stride = new_stride;
        }
    }
    e.lastAddr = vaddr;

    if (e.confidence >= confThreshold && e.stride != 0) {
        Addr target = vaddr;
        Addr prev_line = lineAlign(vaddr);
        for (unsigned d = 0; d < degree; ++d) {
            target += static_cast<Addr>(e.stride);
            const Addr line = lineAlign(target);
            if (line == prev_line)
                continue; // small stride staying in the same line
            prev_line = line;
            out.push_back(target);
            recent.remember(line);
            ++issued;
        }
    }
    return out;
}

void
StridePrefetcher::saveState(snap::Writer &w) const
{
    w.u64(table.size());
    for (const Entry &e : table) {
        w.u32(e.pcTag);
        w.u32(e.lastAddr);
        w.u32(static_cast<std::uint32_t>(e.stride));
        w.u64(e.confidence);
        w.boolean(e.valid);
    }
    recent.saveState(w);
}

void
StridePrefetcher::loadState(snap::Reader &r)
{
    r.expectU64(table.size(), "stride RPT entries");
    for (Entry &e : table) {
        e.pcTag = r.u32();
        e.lastAddr = r.u32();
        e.stride = static_cast<std::int32_t>(r.u32());
        e.confidence = static_cast<unsigned>(r.u64());
        e.valid = r.boolean();
    }
    recent.loadState(r, "stride");
}

} // namespace cdp
